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

The ledger consumes four engine events and computes every charge from
the engine's simulation state; the engine counts nothing for it.  At
run start it takes T and the arena size and builds its bit-length
table.  At each leaf start it counts the cells fixed through the leaf:
arena, stack, retained and forming summaries, tree position, counters
and run parameters.  After a tape's block begins and after each head
arrival off its block hull it recharges that tape's entry snapshot at
the hull's length.  It recounts the tape's administrative integers
(live bounds, block-window bounds, evicted-dirty hull) only when one of
them leaves its band, the range over which its cell count is constant;
a band holds at least every integer of one bit length, so that happens
about once per doubling.  A metered step adds the clock and each head
to the cached cells.

Between two of these events the row of every step is bounded: each
head stays inside its block hull and the clock inside the leaf, so
book <= cached + cells(R) + sum over tapes of max(cells(blk_lo),
cells(blk_hi)), with R the leaf's last step.  A maximum and its argmax
change only on a strict >, so after each event and each metered step
the ledger sets `hot` to whether that bound can beat max_screen,
max_book or max_total, and the engine meters a step only while `hot`
holds.  keep_series keeps every step hot.  The engine adds each leaf's
completed steps to steps_recorded, however the leaf ends.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

SYMBOL_CELL = 1


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


def int_cells(value: int, gamma: int) -> int:
    bits = (value if value >= 0 else ~value).bit_length() + 1
    return cells_table(gamma, bits)[bits]


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
    # the gate: whether the next step's row can beat a maximum
    hot: bool = field(default=True, init=False, repr=False, compare=False)
    # this run's bit-length table, built at run start for its t, and per
    # table index the bands of the integers it holds: nonnegative ones
    # and negative ones
    cell_table: list[int] = field(default_factory=list, init=False, repr=False, compare=False)
    _nonneg_bands: list[tuple[int, int]] = field(default_factory=list, init=False, repr=False, compare=False)
    _neg_bands: list[tuple[int, int]] = field(default_factory=list, init=False, repr=False, compare=False)
    # cached cells: per tape, its administrative integers, the bands
    # they were counted in, its entry snapshot and the most a head
    # inside its hull costs; over the run, the cells that stay fixed
    # through a step and the most the clock and heads add to the book
    _tape_book: list[int] = field(default_factory=list, init=False, repr=False, compare=False)
    _tape_bands: list[list[int]] = field(default_factory=list, init=False, repr=False, compare=False)
    _tape_screen: list[int] = field(default_factory=list, init=False, repr=False, compare=False)
    _tape_heads: list[int] = field(default_factory=list, init=False, repr=False, compare=False)
    _screen: int = field(default=0, init=False, repr=False, compare=False)
    _book: int = field(default=0, init=False, repr=False, compare=False)
    _bound: int = field(default=0, init=False, repr=False, compare=False)

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
        nonneg = self._nonneg_bands = [(0, -1)] * size
        neg = self._neg_bands = [(0, -1)] * size
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
        self._tape_book = [0] * k
        self._tape_bands = [[0, -1] * 6 for _ in range(k)]
        self._tape_screen = [0] * k
        self._tape_heads = [0] * k

    def _cells(self, values) -> int:
        """Cells of the given integers, one table lookup each."""
        cells = self.cell_table
        return sum([cells[(v if v >= 0 else ~v).bit_length() + 1] for v in values])

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
            values.extend(d.heads_in)
            for lo, hi in d.entry_spans:
                values.append(lo)
                values.append(hi)
        screen = self.arena_cells + self._cells(values)
        if run.retained_entry is not None:
            screen += sum(len(w) for w in run.retained_entry)
        book = self._cells(
            (run.leaf_id, self.t, self.b, self.T, pending, run.next_id)
        )
        if run.depth_now >= 1:
            book += self.cell_table[run.depth_now]  # path direction bits
        book += 1  # phase flag
        self._screen = screen + sum(self._tape_screen)
        self._book = book + sum(self._tape_book)
        R = run.decomp.block(run.leaf_id)[1]
        self._bound = self.cell_table[R.bit_length() + 1] + sum(self._tape_heads)
        for ts in run.tapes:
            self.refresh_tape(ts)

    def _recount(self, ts) -> None:
        """Recount a tape's administrative integers, note the band each
        was counted in, and bound a head inside the hull by the dearer
        hull end."""
        cells = self.cell_table
        nonneg, neg = self._nonneg_bands, self._neg_bands
        counts: list[int] = []
        band: list[int] = []
        for v in (ts.lo, ts.hi, ts.blk_lo, ts.blk_hi, ts.lost_lo, ts.lost_hi):
            if v >= 0:
                n = v.bit_length() + 1
                band += nonneg[n]
            else:
                n = (~v).bit_length() + 1
                band += neg[n]
            counts.append(cells[n])
        i = ts.index
        self._tape_bands[i] = band
        book = sum(counts)
        self._book += book - self._tape_book[i]
        self._tape_book[i] = book
        head = max(counts[2], counts[3])  # the hull ends
        self._bound += head - self._tape_heads[i]
        self._tape_heads[i] = head

    def refresh_tape(self, ts) -> None:
        """A tape's block began or its head arrived off the hull: charge
        the entry snapshot at the hull's length, recount the
        administrative integers if one has left its band, and reset the
        gate."""
        i = ts.index
        band = self._tape_bands[i]
        if not (
            band[0] <= ts.lo <= band[1]
            and band[2] <= ts.hi <= band[3]
            and band[4] <= ts.blk_lo <= band[5]
            and band[6] <= ts.blk_hi <= band[7]
            and band[8] <= ts.lost_lo <= band[9]
            and band[10] <= ts.lost_hi <= band[11]
        ):
            self._recount(ts)
        screen = ts.blk_hi - ts.blk_lo + 1
        self._screen += screen - self._tape_screen[i]
        self._tape_screen[i] = screen
        if not self.keep_series:
            screen = self._screen
            book = self._book + self._bound
            self.hot = screen > self.max_screen or book > self.max_book or screen + book > self.max_total

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
            # refresh_tape's gate, written out in both: a shared method
            # costs a call per arrival, 5-10% of a metered palin or sweep run
            book = self._book + self._bound
            self.hot = screen > self.max_screen or book > self.max_book or screen + book > self.max_total

    def note_dirty_eviction(self) -> None:
        self.dirty_evictions += 1


def attach_ledger(machine, t: int, b: int, c_int: int = 2, keep_series: bool = False) -> ScreenLedger:
    """Ledger wired to a machine's alphabet size, ready to hand to
    holo_run."""
    gamma = len(machine.work_alphabet)
    return ScreenLedger(gamma=gamma, t=t, b=b, c_int=c_int, keep_series=keep_series)
