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
  on the pending stack, the entry snapshot of the block being replayed,
  and the retained entry window of block 1 for the root summary.
* A parked digest is charged for its entry-side interface only (state
  index, head positions, window endpoints): its exit side equals the
  live frontier at park time and is checked there rather than stored,
  the right operand of the eventual merge brings its own exit data,
  and the interval identity follows from the traversal position that
  the book meter already counts.  Redundant digest fields kept in
  Python for audit assertions are test scaffolding, not storage.
* "Book" cells hold bookkeeping: the root-to-current-node path as one
  direction bit per edge, the current node id, the step/leaf/offset
  counters, the run parameters t, b, T, a phase flag, and the per-tape
  administrative integers (head, live bounds, block-window bounds,
  evicted-dirty hull).  Everything here is O(log) many integers of
  O(log) bits, so max_book grows like log T.
* s_total = s_screen + s_book, recorded once per simulated step.
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

    Created by attach_ledger, filled in by holo_run.  keep_series=True
    retains one LedgerRow per step for plotting; large runs should
    leave it off and use the maxima.
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
    # this run's bit-length table, set by the engine for its t
    cell_table: list[int] = field(default_factory=list, repr=False, compare=False)

    def record(self, tau: int, screen: int, book: int) -> None:
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
