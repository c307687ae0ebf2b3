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
* s_total = s_screen + s_book, recorded once per simulated step.

The ledger consumes four engine events and computes every charge from
the engine's simulation state; the engine counts nothing for it.  At
run start it takes T and the arena size and builds its bit-length
table.  At each leaf start it counts the cells fixed through the leaf:
arena, stack, retained and forming summaries, tree position, counters
and run parameters.  After a tape's block begins and after each head
arrival off its block hull it recounts that tape's entry snapshot and
administrative integers (live bounds, block-window bounds,
evicted-dirty hull), the only moments they change, and keeps running
totals over the tapes.  A step then adds the clock and each head: k + 1
table lookups and one call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .codec import zigzag

SYMBOL_CELL = 1


def bits_of(value: int) -> int:
    """Bits in the zigzag folding of value; zero still takes one bit.
    Equal to (value if value >= 0 else ~value).bit_length() + 1, the
    form the bit-length table is indexed by."""
    return max(1, zigzag(value).bit_length())


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


def ints_cells(values, gamma: int) -> int:
    return sum(int_cells(v, gamma) for v in values)


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
    keep_series=True retains one LedgerRow per step for plotting; large
    runs should leave it off and use the maxima.
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
    # this run's bit-length table, built at run start for its t
    cell_table: list[int] = field(default_factory=list, init=False, repr=False, compare=False)
    # cached cells: per tape, its administrative integers and entry
    # snapshot; over the run, the cells that stay fixed through a step
    _tape_book: list[int] = field(default_factory=list, init=False, repr=False, compare=False)
    _tape_screen: list[int] = field(default_factory=list, init=False, repr=False, compare=False)
    _screen: int = field(default=0, init=False, repr=False, compare=False)
    _book: int = field(default=0, init=False, repr=False, compare=False)

    # ---- engine events ----------------------------------------------------

    def start_run(self, run) -> None:
        """Run start: T, the arena of k tapes times c_int * b cells, and
        the bit-length table.  Every integer metered lies in [-t, t],
        since heads move one cell a step and windows hold only visited
        cells, and the path has at most t.bit_length() edges.  A ledger
        meters one run: one that has recorded steps is refused."""
        if self.steps_recorded:
            raise ValueError(
                f"ledger has already recorded {self.steps_recorded} steps; "
                f"attach a fresh one for each run"
            )
        self.T = run.T
        self.arena_cells = len(run.tapes) * run.cap
        self.cell_table = cells_table(self.gamma, self.t.bit_length() + 1)
        self._tape_book = [0] * len(run.tapes)
        self._tape_screen = [0] * len(run.tapes)

    def start_leaf(self, run) -> None:
        """Leaf start, after every tape's block has begun: count the
        cells that stay fixed through the leaf (the stack parks and pops
        and block 1's windows are retained only between leaves, and the
        node id and path change only there) and recount every tape.
        The forming summary, block 1's retained windows and the parked
        digests are counted here from the engine's state."""
        idx = run.machine.state_index
        values = [run.tau + 1, idx[run.state], *run.heads]
        for d in run.pending:
            values.append(idx[d.q_in])
            values.extend(d.heads_in)
            for lo, hi in d.entry_spans:
                values.append(lo)
                values.append(hi)
        screen = self.arena_cells + ints_cells(values, self.gamma)
        if run.retained_entry is not None:
            screen += sum(len(w) for w in run.retained_entry)
        book = ints_cells(
            (run.leaf_id, self.t, self.b, self.T, len(run.pending), run.next_id), self.gamma
        )
        if run.depth_now >= 1:
            book += self.cell_table[run.depth_now]  # path direction bits
        book += 1  # phase flag
        self._screen = screen + sum(self._tape_screen)
        self._book = book + sum(self._tape_book)
        for ts in run.tapes:
            self.refresh_tape(ts)

    def refresh_tape(self, ts) -> None:
        """A tape's window, hull or lost hull moved: recount its entry
        snapshot, charged at the hull's length, and its administrative
        integers, and update the totals."""
        cells = self.cell_table
        book = 0
        for v in (ts.lo, ts.hi, ts.blk_lo, ts.blk_hi, ts.lost_lo, ts.lost_hi):
            book += cells[(v if v >= 0 else ~v).bit_length() + 1]
        i = ts.index
        self._book += book - self._tape_book[i]
        self._tape_book[i] = book
        screen = ts.blk_hi - ts.blk_lo + 1
        self._screen += screen - self._tape_screen[i]
        self._tape_screen[i] = screen

    def step(self, tau: int, heads) -> None:
        """Record step tau: the cached cells plus the clock and each
        head, one table lookup each."""
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
        self.steps_recorded += 1
        if self.keep_series:
            self.series.append(LedgerRow(tau, screen, book))

    def note_pending(self, depth: int) -> None:
        if depth > self.max_pending:
            self.max_pending = depth

    def note_dirty_eviction(self) -> None:
        self.dirty_evictions += 1

    def summary_line(self) -> str:
        return (
            f"t={self.t} b={self.b} T={self.T} "
            f"max_screen={self.max_screen} max_book={self.max_book} "
            f"max_total={self.max_total} dirty_evictions={self.dirty_evictions}"
        )


def attach_ledger(machine, t: int, b: int, c_int: int = 2, keep_series: bool = False) -> ScreenLedger:
    """Ledger wired to a machine's alphabet size, ready to hand to
    holo_run."""
    gamma = len(machine.work_alphabet)
    return ScreenLedger(gamma=gamma, t=t, b=b, c_int=c_int, keep_series=keep_series)
