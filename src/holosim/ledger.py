"""Space accounting for the streaming simulator, in tape-cell units.

Conventions, fixed here and used by every metric downstream:

* The unit is one work-tape cell, i.e. one symbol of the machine's work
  alphabet Gamma.  A stored symbol costs 1 cell.
* A stored integer v costs the number of Gamma-cells needed to hold its
  zigzag folding: ceil(bits(zigzag(v)) / log2(|Gamma|)) with a minimum
  of one bit.  The ceiling is computed exactly (no float comparison)
  once per bit length: each gamma has one bit-length table, grown to
  the longest folding seen, so it holds O(log |v|) entries, and every
  integer is converted by one lookup in it.
* The read-only input word is the problem statement, not working
  storage, and is never metered.  Pulling an input symbol into the live
  window charges the window's cell, which is already inside the
  reserved arena.
* "Screen" cells hold simulation payload: the reserved live-window
  arena (k tapes times c_int * b cells, charged at full reservation
  whether or not every cell is occupied), the boundary digests parked
  on the pending stack, the summary forming for the current leaf, the
  entry snapshot of the block being replayed, and the retained entry
  window of block 1 for the root summary.
* The entry snapshot is charged at the length of the block hull, the
  cells visited since the block began, which is what the block's entry
  windows hold.  The engine keeps no symbols for it (only block 1's
  reach the root summary, and those are the initial tape's), but the
  model charges what a summary of the block needs.
* A parked digest is charged for its entry-side interface only (state
  index, head positions, entry window endpoints): its exit side equals
  the live frontier at park time and is checked there rather than
  stored, the right operand of the eventual merge brings its own exit
  data, and the interval identity follows from the traversal position
  that the book meter already counts.  Redundant digest fields kept in
  Python for audit assertions are test scaffolding, not storage.
* The forming summary of the current leaf is charged for its entry
  interface: its first step, the state index and the head positions.
* "Book" cells hold bookkeeping: the root-to-current-node path as one
  direction bit per edge, the current node id, the step/leaf/offset
  counters, the run parameters t, b, T, a phase flag, and the per-tape
  administrative integers (head, live bounds, block-window bounds,
  evicted-dirty hull).  Everything here is O(log) many integers of
  O(log) bits, so max_book grows like log T.
* s_total = s_screen + s_book.  The maxima and argmaxes are over every
  simulated step, even those the gate below does not meter.

The ledger consumes three engine events, `start_run`, `start_leaf` and
`refresh_tape`, and computes every charge from the engine's simulation
state; the engine only adds counts to two of its figures, as below.  At
run start it takes T and the arena size and builds its bit-length
table.  At each leaf start it counts the cells fixed through the leaf:
arena, stack, retained and forming summaries, tree position, counters
and run parameters.  Per tape it keeps two fences, `fence_lo` and
`fence_hi`, around the block hull, and a head's step off its hull is an
event only when it crosses one of them.  After a tape's block begins
and at each such event it recharges the entry snapshots at the hulls'
lengths.  It recounts each of the tape's administrative integers (live
bounds, block-window bounds, evicted-dirty hull) only when it has left
its band, the range over which its cell count is constant; a band holds
at least every integer of one bit length, so that happens about once
per doubling.  A metered step adds the clock and each head to the
cached cells.

Between two events the book of every step is bounded: a fence ends
short of the first cell at which an arrival would take an
administrative integer out of its band (the hull end, the window ends
and the lost hull's near end), so every head stays inside a hull whose
ends cost what they did at the event, and the clock stays inside the
leaf: book <= cached + cells(R) + sum over tapes of max(cells(blk_lo),
cells(blk_hi)), with R the leaf's last step.  A maximum and its argmax
change only on a strict >, so after each event and each metered step
the ledger sets `hot` to whether that bound can beat max_screen,
max_book or max_total, and the engine meters a step only while `hot`
holds.  While `hot` holds every fence is its hull, so every growth is
an event.  Otherwise the slack, the cells of hull growth over all tapes
that can beat neither max_screen nor max_total, goes to the end of the
hull at which the event's head stands, what that end's band edges leave
of it to the hull's other end, and every other tape's fences are its
hull.  So while every head stays inside its fences no row can beat a
maximum, and no integer leaves its band.  keep_series keeps every step
hot and every fence at its hull.

The engine evicts every cell its windows owe (see streaming) before each
event and each metered step, so the ledger always reads settled windows
and lost hulls.  It adds each leaf's completed steps to steps_recorded,
however the leaf ends, and the dirty cells it evicts to dirty_evictions:
one at a time for a window that moves through its arrival discipline,
and as one count for the cells a full window slid off while the gate
was cold.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field


def cells_for_bits(bits: int, gamma: int) -> int:
    """Smallest c with gamma**c >= 2**bits, computed exactly."""
    if gamma < 2:
        raise ValueError(f"alphabet size must be >= 2, got {gamma}")
    if bits < 1:
        raise ValueError(f"bit count must be >= 1, got {bits}")
    c = max(1, math.ceil(bits / math.log2(gamma)))
    while c > 1 and gamma ** (c - 1) >= 1 << bits:
        c -= 1
    while gamma**c < 1 << bits:
        c += 1
    return c


_TABLES: dict[int, list[int]] = {}


def cells_table(gamma: int, bits: int) -> list[int]:
    """The bit-length table of alphabet size gamma, grown to hold
    `bits`: entry n is cells_for_bits(n, gamma), the cells of an int
    whose zigzag folding has n bits.  Entry 0 is unused."""
    table = _TABLES.get(gamma)
    if table is None:
        table = _TABLES[gamma] = [0]
    while len(table) <= bits:
        table.append(cells_for_bits(len(table), gamma))
    return table


@dataclass
class LedgerRow:
    tau: int
    screen: int
    book: int

    @property
    def total(self) -> int:
        return self.screen + self.book


@dataclass
class ScreenLedger:
    """Per-step space series and maxima for one streaming run.

    Created by attach_ledger for one (t, b, c_int), filled in by a
    holo_run with those parameters through the events below.
    keep_series=True retains one LedgerRow per step for plotting, and so
    meters every step; large runs should leave it off and use the
    maxima.
    """

    gamma: int
    t: int
    b: int
    c_int: int
    keep_series: bool = False

    T: int = 0
    arena_cells: int = 0
    max_screen: int = 0
    max_book: int = 0
    max_total: int = 0
    argmax_screen: int = 0
    argmax_book: int = 0
    argmax_total: int = 0
    max_pending: int = 0
    dirty_evictions: int = 0
    steps_recorded: int = 0
    series: list[LedgerRow] = field(default_factory=list)
    # The attributes below are few on purpose: CPython 3.11 keeps at most
    # 29 of an instance's attributes in its compact shared-key layout,
    # and with a 30th every attribute load of the ledger timed about 1 ns
    # slower (4.0 against 4.9 ns), so related caches share one.
    #
    # the gate: whether the next step's row can beat a maximum
    hot: bool = field(default=True, init=False, repr=False, compare=False)
    # this run's bit-length table, built at run start for its t, and per
    # table index the bands of the integers it holds: a list for the
    # nonnegative ones and one for the negative ones
    cell_table: list[int] = field(default_factory=list, init=False, repr=False, compare=False)
    _bands: tuple[list[tuple[int, int]], list[tuple[int, int]]] = field(
        default=((), ()), init=False, repr=False, compare=False
    )
    # cached cells: per tape, each of its administrative integers (lo,
    # hi, blk_lo, blk_hi, lost_lo, lost_hi) and the band it was counted
    # in, and its entry snapshot; over the run, the cells that stay fixed
    # through a step and the most the clock and heads add to the book
    _tape_cells: list[list[int]] = field(default_factory=list, init=False, repr=False, compare=False)
    _tape_bands: list[list[int]] = field(default_factory=list, init=False, repr=False, compare=False)
    _tape_screen: list[int] = field(default_factory=list, init=False, repr=False, compare=False)
    _screen: int = field(default=0, init=False, repr=False, compare=False)
    _book: int = field(default=0, init=False, repr=False, compare=False)
    _bound: int = field(default=0, init=False, repr=False, compare=False)
    # per tape, the cells its head may reach without an event (the
    # engine holds these two lists through a leaf, so they are only ever
    # written in place), and the one tape whose fences may lie outside
    # its hull, which may have grown since it was charged
    fence_lo: list[int] = field(default_factory=list, init=False, repr=False, compare=False)
    fence_hi: list[int] = field(default_factory=list, init=False, repr=False, compare=False)
    _open: object = field(default=None, init=False, repr=False, compare=False)

    # ---- engine events ----------------------------------------------------

    def start_run(self, run) -> None:
        """Run start: T, the arena of k tapes times c_int * b cells, and
        the bit-length table and its bands.  Every integer metered lies
        in [-2t, 2t] or below b or the number of states: heads move one
        cell a step, windows hold only visited cells, and the walk
        numbers fewer than 2T nodes.  A ledger meters one run: one that
        has recorded steps is refused."""
        if self.steps_recorded:
            raise ValueError(
                f"ledger has already recorded {self.steps_recorded} steps; "
                f"attach a fresh one for each run"
            )
        self.T = run.T
        self.arena_cells = len(run.tapes) * run.cap
        size = max(2 * self.t, self.b, len(run.machine.state_index)).bit_length() + 2
        cells = self.cell_table = cells_table(self.gamma, size)[:size]
        # index n holds the ints whose folding v if v >= 0 else ~v has
        # n - 1 bits.  A band is a maximal run first..n of indices with
        # equal cells, as a range of v: one across zero if the run holds
        # folding 0, else one on each side of zero
        nonneg = [(0, -1)] * size
        neg = [(0, -1)] * size
        self._bands = nonneg, neg
        first = 1
        for n in range(1, size):
            if n + 1 < size and cells[n + 1] == cells[n]:
                continue
            top = (1 << (n - 1)) - 1
            if first == 1:
                bands = (~top, top), (~top, top)
            else:
                bottom = 1 << (first - 2)
                bands = (bottom, top), (~top, ~bottom)
            for j in range(first, n + 1):
                nonneg[j], neg[j] = bands
            first = n + 1
        k = len(run.tapes)
        self._tape_cells = [[0] * 6 for _ in range(k)]
        self._tape_bands = [[0, -1] * 6 for _ in range(k)]
        self._tape_screen = [0] * k
        self.fence_lo = [0] * k
        self.fence_hi = [0] * k

    def _cells(self, values) -> int:
        """Cells of the given integers, one table lookup each."""
        cells = self.cell_table
        total = 0
        for v in values:
            total += cells[(v if v >= 0 else ~v).bit_length() + 1]
        return total

    def start_leaf(self, run) -> None:
        """Leaf start, after every tape's block has begun: count the
        cells that stay fixed through the leaf (the stack parks and pops
        and block 1's windows are retained only between leaves, and the
        node id and path change only there) and refresh every tape.
        The forming summary, block 1's retained windows and the parked
        digests are counted here from the engine's state; their number
        sets max_pending, since every park is followed by a leaf start
        with no pop between.  The clock's bound is the leaf's last
        step."""
        pending = len(run.pending)
        if pending > self.max_pending:
            self.max_pending = pending
        idx = run.machine.state_index
        values = [run.tau + 1, idx[run.state], *run.heads]
        for d in run.pending:
            values.append(idx[d.q_in])
            values += d.heads_in
            for span in d.entry_spans:
                values += span
        screen = self.arena_cells + self._cells(values)
        if run.retained_entry is not None:
            screen += sum(map(len, run.retained_entry))
        book = self._cells(
            (run.leaf_id, self.t, self.b, self.T, pending, run.next_id)
        )
        if run.depth_now >= 1:
            book += self.cell_table[run.depth_now]  # path direction bits
        book += 1  # phase flag
        self._screen = screen + sum(self._tape_screen)
        self._book = book + sum([sum(counts) for counts in self._tape_cells])
        R = run.decomp.block(run.leaf_id)[1]
        # a head inside its hull costs at most the dearer hull end
        heads = sum([max(c[2], c[3]) for c in self._tape_cells])
        self._bound = self.cell_table[R.bit_length() + 1] + heads
        for ts in run.tapes:
            self.refresh_tape(ts)

    def _recount(self, ts, j: int, v: int) -> None:
        """Recount a tape's j-th administrative integer, now v, which has
        left the band it was counted in: note its new band and cells, and
        update the book and, for a hull end, the head bound, which is the
        dearer hull end's cells."""
        if v >= 0:
            n = v.bit_length() + 1
            band = self._bands[0][n]
        else:
            n = (~v).bit_length() + 1
            band = self._bands[1][n]
        i = ts.index
        self._tape_bands[i][2 * j : 2 * j + 2] = band
        counts = self._tape_cells[i]
        cells = self.cell_table[n]
        self._book += cells - counts[j]
        if j == 2 or j == 3:
            head = max(counts[2], counts[3])
            counts[j] = cells
            self._bound += max(counts[2], counts[3]) - head
        else:
            counts[j] = cells

    def refresh_tape(self, ts) -> None:
        """A tape's block began or its head crossed a fence: recount each
        administrative integer that has left its band, charge the entry
        snapshot at the hull's length, and that of the tape whose head may
        have grown its hull inside its fence since; reset the gate and the
        fences."""
        i = ts.index
        band = self._tape_bands[i]
        blk_lo, blk_hi = ts.blk_lo, ts.blk_hi
        if not band[4] <= blk_lo <= band[5]:
            self._recount(ts, 2, blk_lo)
        if not band[6] <= blk_hi <= band[7]:
            self._recount(ts, 3, blk_hi)
        if not band[0] <= ts.lo <= band[1]:
            self._recount(ts, 0, ts.lo)
        if not band[2] <= ts.hi <= band[3]:
            self._recount(ts, 1, ts.hi)
        if not band[8] <= ts.lost_lo <= band[9]:
            self._recount(ts, 4, ts.lost_lo)
        if not band[10] <= ts.lost_hi <= band[11]:
            self._recount(ts, 5, ts.lost_hi)
        screen = blk_hi - blk_lo + 1
        self._screen += screen - self._tape_screen[i]
        self._tape_screen[i] = screen
        fence_lo, fence_hi = self.fence_lo, self.fence_hi
        other = self._open
        if other is not None and other is not ts:
            j = other.index
            screen = other.blk_hi - other.blk_lo + 1
            self._screen += screen - self._tape_screen[j]
            self._tape_screen[j] = screen
            fence_lo[j], fence_hi[j] = other.blk_lo, other.blk_hi
        if self.keep_series:
            fence_lo[i], fence_hi[i] = blk_lo, blk_hi
            return
        # the cells of hull growth, over all tapes, that can beat neither
        # max_screen nor max_total
        screen = self._screen
        book = self._book + self._bound
        slack = self.max_screen - screen
        total = self.max_total - screen - book
        if total < slack:
            slack = total
        hot = self.hot = slack < 0 or book > self.max_book
        if hot or not slack:
            fence_lo[i], fence_hi[i] = blk_lo, blk_hi
            self._open = None
            return
        # how far each end may grow while every administrative integer
        # stays in its band: the hull end h and, for an arrival, the window
        # end h; and no eviction, unless a lost hull lies on that side,
        # whose near end a dirty eviction moves to h -+ cap while the far
        # window end moves to h -+ (cap - 1).  (Comparisons, not min and
        # max: a call costs more than all of them.)
        cap = ts.cap
        lo, hi = ts.lo, ts.hi
        lost_lo, lost_hi = ts.lost_lo, ts.lost_hi
        far_lo = hi - cap + 1
        if hi < lost_lo <= lost_hi:
            if far_lo > band[8] - cap:
                far_lo = band[8] - cap
            if far_lo < band[2] - cap + 1:
                far_lo = band[2] - cap + 1
        if far_lo < band[0]:
            far_lo = band[0]
        if far_lo < band[4]:
            far_lo = band[4]
        far_hi = lo + cap - 1
        if lost_lo <= lost_hi < lo:
            if far_hi < band[11] + cap:
                far_hi = band[11] + cap
            if far_hi > band[1] + cap - 1:
                far_hi = band[1] + cap - 1
        if far_hi > band[3]:
            far_hi = band[3]
        if far_hi > band[7]:
            far_hi = band[7]
        # all of the slack to the end where the head stands, the one whose
        # fence it crossed, and what its band edges leave of it to the
        # other end
        if blk_lo < fence_lo[i]:
            f = blk_lo - slack
            if f < far_lo:
                f = far_lo
            fence_lo[i] = f
            f = blk_hi + slack - (blk_lo - f)
            fence_hi[i] = f if f < far_hi else far_hi
        else:
            f = blk_hi + slack
            if f > far_hi:
                f = far_hi
            fence_hi[i] = f
            f = blk_lo - slack + (f - blk_hi)
            fence_lo[i] = f if f > far_lo else far_lo
        self._open = ts

    def step(self, tau: int, heads) -> None:
        """Record step tau, which the gate let through: the cached cells
        plus the clock and each head, one table lookup each.  Then reset
        the gate against the new maxima."""
        cells = self.cell_table
        book = self._book + cells[tau.bit_length() + 1]
        for h in heads:
            book += cells[(h if h >= 0 else ~h).bit_length() + 1]
        screen = self._screen
        total = screen + book
        if screen > self.max_screen:
            self.max_screen = screen
            self.argmax_screen = tau
        if book > self.max_book:
            self.max_book = book
            self.argmax_book = tau
        if total > self.max_total:
            self.max_total = total
            self.argmax_total = tau
        if self.keep_series:
            self.series.append(LedgerRow(tau, screen, book))
        else:
            # refresh_tape's gate without its slack, written out: a step
            # opens no fence, and a call would cost one per metered step
            book = self._book + self._bound
            self.hot = screen > self.max_screen or book > self.max_book or screen + book > self.max_total


def attach_ledger(machine, t: int, b: int, c_int: int = 2, keep_series: bool = False) -> ScreenLedger:
    """Ledger wired to a machine's alphabet size, ready to hand to
    holo_run."""
    gamma = len(machine.work_alphabet)
    return ScreenLedger(gamma=gamma, t=t, b=b, c_int=c_int, keep_series=keep_series)
