"""Block decomposition, interval summaries and their merge algebra.

A run of t steps is cut into T = ceil(t/b) blocks of b consecutive
steps (the last may be shorter); block k's bounds are arithmetic in
(t, b), so no list of blocks is kept.  The summary of a step interval
[L, R] records the control state and head positions on entry (time
L-1) and exit (time R), plus interface windows carrying tape contents
at those two times.  Adjacent summaries join with merge(); a whole run
folds down to a single summary whose windows stay small under the
boundary policy.

Window convention: the cells a block touches are the head positions
over configurations L-1 through R inclusive, so the resting position
of a head at the block boundary belongs to both neighbouring blocks.

Summaries are read off a HistoryCursor walking the oracle history
forward: entry windows at L-1, then the cursor advances to R for the
exit windows.  A leaf reads one slice of the recorded trace for its head
hull and one for the advance, with no call per step.  leaf_summaries
walks a single cursor through every block in time order;
interval_summary, and so leaf_summary and direct_summary, walk a fresh
cursor from time 0 to L-1.
Windows are read and merged by slicing symbol tuples, not cell by cell.
TapeWindow and IntervalSummary are slotted records, not frozen ones
(a frozen init sets each field through object.__setattr__), but are
values all the same: merged summaries share windows.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from itertools import repeat
from typing import Iterator, Sequence

from .errors import MergeIncompatible, NonBlockRespecting
from .machine import HistoryCursor, MachineSpec, RunRecord

POLICY_FULL = "full"
POLICY_BOUNDARY = "boundary"


@dataclass(frozen=True)
class BlockDecomposition:
    """The cut of step range [1, t] into T = ceil(t/b) blocks of b steps,
    the last possibly shorter.  Block k's bounds are computed from (t, b)
    when asked for, so a decomposition holds three integers whatever
    t/b; build one with decompose()."""

    t: int
    b: int
    T: int

    def block(self, k: int) -> tuple[int, int]:
        """Step interval [L, R] of block k, 1 <= k <= T."""
        if not 1 <= k <= self.T:
            raise IndexError(f"block index {k} outside [1, {self.T}]")
        return ((k - 1) * self.b + 1, min(k * self.b, self.t))

    @property
    def blocks(self) -> tuple[tuple[int, int], ...]:
        """Every block's (L, R) in order, built afresh on each read: T
        pairs, so nothing that streams a run reads it."""
        return tuple(map(self.block, range(1, self.T + 1)))


def decompose(t: int, b: int) -> BlockDecomposition:
    """Cut step range [1, t] into blocks of b steps, in O(1): no block is
    listed.  t = 0 produces an empty decomposition; negative t or
    non-positive b are rejected."""
    if t < 0:
        raise ValueError(f"t must be >= 0, got {t}")
    if b < 1:
        raise ValueError(f"b must be >= 1, got {b}")
    return BlockDecomposition(t=t, b=b, T=-(-t // b))


@dataclass(slots=True)
class TapeWindow:
    """Contiguous cell span with the symbols over it at one instant.
    An empty window is canonically (lo=0, hi=-1, no symbols)."""

    lo: int
    hi: int
    symbols: tuple[str, ...]

    def __post_init__(self):
        if len(self.symbols) != self.hi - self.lo + 1:
            raise ValueError(
                f"window [{self.lo},{self.hi}] carries {len(self.symbols)} symbols"
            )
        if self.hi < self.lo and (self.lo, self.hi) != (0, -1):
            raise ValueError("empty window must be canonical (0, -1)")

    def __len__(self) -> int:
        return self.hi - self.lo + 1

    def symbol_at(self, cell: int) -> str:
        if not self.lo <= cell <= self.hi:
            raise IndexError(f"cell {cell} outside window [{self.lo},{self.hi}]")
        return self.symbols[cell - self.lo]

    def covers(self, cell: int) -> bool:
        return self.lo <= cell <= self.hi

    @property
    def span(self) -> tuple[int, int]:
        return (self.lo, self.hi)


EMPTY_WINDOW = TapeWindow(0, -1, ())


def tape_window(tape: dict[int, str], lo: int, hi: int, blank: str) -> TapeWindow:
    """The window [lo, hi] of a tape held as a dict of its non-blank
    cells."""
    return TapeWindow(lo, hi, tuple(map(tape.get, range(lo, hi + 1), repeat(blank))))


@dataclass(slots=True)
class IntervalSummary:
    """Boundary data of a step interval.

    entry holds per-tape windows with contents at time L-1, exit the
    same at time R.  Under the full policy both sides share one span
    per tape (all cells the interval visited).  Under the boundary
    policy the entry side keeps only the leftmost constituent block's
    window and the exit side the rightmost's, so the two sides may
    have different spans.
    """

    machine: MachineSpec = field(compare=False, repr=False)
    L: int = 1
    R: int = 1
    q_in: str = ""
    q_out: str = ""
    heads_in: tuple[int, ...] = ()
    heads_out: tuple[int, ...] = ()
    entry: tuple[TapeWindow, ...] = ()
    exit: tuple[TapeWindow, ...] = ()
    policy: str = POLICY_FULL

    def __post_init__(self):
        if self.L < 1 or self.R < self.L:
            raise ValueError(f"invalid step interval [{self.L},{self.R}]")
        if self.policy not in (POLICY_FULL, POLICY_BOUNDARY):
            raise ValueError(f"unknown policy {self.policy!r}")
        if self.policy == POLICY_FULL:
            for ew, xw in zip(self.entry, self.exit):
                if ew.lo != xw.lo or ew.hi != xw.hi:
                    raise ValueError("full-policy summary needs one span per tape")

    @property
    def steps(self) -> int:
        return self.R - self.L + 1


def screen_area(s: IntervalSummary) -> int:
    """Number of tape cells the summary's windows carry.  A tape whose
    entry and exit sides sit over the same span counts that span once."""
    total = 0
    for ew, xw in zip(s.entry, s.exit):
        if ew.span == xw.span:
            total += len(ew)
        else:
            total += len(ew) + len(xw)
    return total


# ---------------------------------------------------------------------------
# building summaries from a recorded run


def _head_hull(
    run: RunRecord, entry_heads: Sequence[int], L: int, R: int
) -> tuple[tuple[int, ...], tuple[tuple[int, int], ...]]:
    """Heads at R and the per-tape hull of head positions over
    configurations L-1..R, from the heads at L-1 and one slice of the
    move trace."""
    heads = list(entry_heads)
    lo = list(entry_heads)
    hi = list(entry_heads)
    tapes = range(len(heads))
    for _, _, moves in run.history.trace[L - 1 : R]:
        for i in tapes:
            h = heads[i] + moves[i]
            heads[i] = h
            if h < lo[i]:
                lo[i] = h
            elif h > hi[i]:
                hi[i] = h
    return tuple(heads), tuple(zip(lo, hi))


def _summarize(run: RunRecord, cursor: HistoryCursor, R: int) -> IntervalSummary:
    """Full-policy summary of [cursor.time + 1, R]; leaves the cursor
    at R."""
    L = cursor.time + 1
    q_in = cursor.state
    heads_in = tuple(cursor.heads)
    heads_out, spans = _head_hull(run, heads_in, L, R)
    blank = run.machine.blank

    def windows() -> tuple[TapeWindow, ...]:
        return tuple(
            tape_window(tape, lo, hi, blank) for tape, (lo, hi) in zip(cursor.cells, spans)
        )

    entry = windows()
    cursor.advance_to(R)
    return IntervalSummary(
        machine=run.machine,
        L=L,
        R=R,
        q_in=q_in,
        q_out=cursor.state,
        heads_in=heads_in,
        heads_out=heads_out,
        entry=entry,
        exit=windows(),
        policy=POLICY_FULL,
    )


def interval_summary(run: RunRecord, L: int, R: int) -> IntervalSummary:
    """Full-policy summary of an arbitrary step interval, read off one
    forward walk of the recorded history.  No window size limit is
    applied."""
    if not 1 <= L <= R <= run.t:
        raise ValueError(f"step interval [{L},{R}] outside [1,{run.t}]")
    cursor = run.history.cursor()
    cursor.advance_to(L - 1)
    return _summarize(run, cursor, R)


def _within_limit(s: IntervalSummary, c_int: int, b: int) -> IntervalSummary:
    """s itself if every entry window holds at most c_int * b cells."""
    if c_int < 1:
        raise ValueError(f"c_int must be >= 1, got {c_int}")
    limit = c_int * b
    for i, w in enumerate(s.entry):
        if len(w.symbols) > limit:
            raise NonBlockRespecting((s.L - 1) // b + 1, i + 1, len(w.symbols), limit)
    return s


def leaf_summary(
    run: RunRecord, block: tuple[int, int], c_int: int, b: int
) -> IntervalSummary:
    """Summary of one block of a decomposition with block length b,
    enforcing the interface window limit c_int * b per tape.  b is the
    decomposition's, not the block's own length: a short final block
    gets the same limit as every other block."""
    L, R = block
    if not 1 <= L <= R <= run.t:
        raise ValueError(f"block [{L},{R}] outside [1,{run.t}]")
    return _within_limit(interval_summary(run, L, R), c_int, b)


def leaf_summaries(
    run: RunRecord, decomp: BlockDecomposition, c_int: int
) -> Iterator[IntervalSummary]:
    """leaf_summary of every block of decomp (a decomposition of run.t),
    in time order, from one cursor walk over the history."""
    cursor = run.history.cursor()
    for k in range(1, decomp.T + 1):
        yield _within_limit(_summarize(run, cursor, decomp.block(k)[1]), c_int, decomp.b)


def direct_summary(
    run: RunRecord,
    decomp: BlockDecomposition,
    k_lo: int,
    k_hi: int,
    c_int: int,
    policy: str = POLICY_FULL,
) -> IntervalSummary:
    """Summary of blocks k_lo..k_hi computed in one pass from the
    oracle history, bypassing merge.  Used to cross-check merges."""
    if not 1 <= k_lo <= k_hi <= decomp.T:
        raise ValueError(f"block range [{k_lo},{k_hi}] outside [1,{decomp.T}]")
    L = decomp.block(k_lo)[0]
    R = decomp.block(k_hi)[1]
    whole = interval_summary(run, L, R)
    if policy == POLICY_FULL:
        return whole
    left_leaf = leaf_summary(run, decomp.block(k_lo), c_int, decomp.b)
    right_leaf = leaf_summary(run, decomp.block(k_hi), c_int, decomp.b)
    return replace(
        whole, entry=left_leaf.entry, exit=right_leaf.exit, policy=POLICY_BOUNDARY
    )


@dataclass(frozen=True)
class BlockCheck:
    k: int
    interval: tuple[int, int]
    spans: tuple[tuple[int, int], ...]
    widths: tuple[int, ...]
    ok: bool


@dataclass(frozen=True)
class BlockReport:
    t: int
    b: int
    c_int: int
    limit: int
    entries: tuple[BlockCheck, ...]
    ok: bool


def check_block_respecting(run: RunRecord, b: int, c_int: int) -> BlockReport:
    """Verify every block's visited span stays within c_int * b cells
    per tape.  One pass over the move trace."""
    if c_int < 1:
        raise ValueError(f"c_int must be >= 1, got {c_int}")
    decomp = decompose(run.t, b)
    limit = c_int * b
    heads = (0,) * run.machine.k
    entries = []
    for idx in range(1, decomp.T + 1):
        L, R = decomp.block(idx)
        heads, spans = _head_hull(run, heads, L, R)
        widths = tuple(hi - lo + 1 for lo, hi in spans)
        entries.append(
            BlockCheck(
                k=idx,
                interval=(L, R),
                spans=spans,
                widths=widths,
                ok=all(w <= limit for w in widths),
            )
        )
    return BlockReport(
        t=run.t,
        b=b,
        c_int=c_int,
        limit=limit,
        entries=tuple(entries),
        ok=all(e.ok for e in entries),
    )


# ---------------------------------------------------------------------------
# merge


def _check_join(left: IntervalSummary, right: IntervalSummary) -> None:
    if left.machine is not right.machine and left.machine != right.machine:
        raise MergeIncompatible("summaries come from different machines")
    if left.policy != right.policy:
        raise MergeIncompatible(f"policy mismatch: {left.policy} vs {right.policy}")
    if left.R + 1 != right.L:
        raise MergeIncompatible(
            f"intervals [{left.L},{left.R}] and [{right.L},{right.R}] are not adjacent"
        )
    if left.q_out != right.q_in:
        raise MergeIncompatible(
            f"exit state {left.q_out!r} does not match entry state {right.q_in!r}"
        )
    if left.heads_out != right.heads_in:
        raise MergeIncompatible(
            f"exit heads {left.heads_out} do not match entry heads {right.heads_in}"
        )
    # both sides snapshot time left.R, so they must agree where they overlap
    for i, (xw, ew) in enumerate(zip(left.exit, right.entry)):
        lo, hi = max(xw.lo, ew.lo), min(xw.hi, ew.hi)
        if lo > hi:
            continue
        if xw.symbols[lo - xw.lo : hi + 1 - xw.lo] != ew.symbols[lo - ew.lo : hi + 1 - ew.lo]:
            c = next(c for c in range(lo, hi + 1) if xw.symbol_at(c) != ew.symbol_at(c))
            raise MergeIncompatible(f"window contents disagree at tape {i + 1} cell {c}")


def _overlay(top: TapeWindow, under: TapeWindow) -> TapeWindow:
    """One window over the union of two touching or overlapping spans:
    top's symbols where top covers a cell, under's elsewhere."""
    if not top.symbols:
        return under
    if not under.symbols:
        return top
    lo, hi = top.lo, top.hi
    left = under.symbols[: lo - under.lo] if under.lo < lo else ()
    right = under.symbols[hi + 1 - under.lo :] if under.hi > hi else ()
    if not left and not right:
        return top
    return TapeWindow(lo - len(left), hi + len(right), left + top.symbols + right)


def merge(left: IntervalSummary, right: IntervalSummary) -> IntervalSummary:
    """Join two adjacent interval summaries.

    Full policy grows one window per tape over the union span.  The
    two summaries always carry enough data to fill both sides: a cell
    outside the left window is untouched during the left interval (all
    writes land under a head, and heads stay inside the window), so its
    content at entry time left.L-1 is exactly what right's entry window
    records at the shared boundary time; symmetrically, a cell outside
    the right window keeps its left-exit content through the right
    interval.  Boundary policy keeps the left operand's entry side and
    the right operand's exit side unchanged.
    """
    _check_join(left, right)
    if left.policy == POLICY_BOUNDARY:
        return IntervalSummary(
            machine=left.machine,
            L=left.L,
            R=right.R,
            q_in=left.q_in,
            q_out=right.q_out,
            heads_in=left.heads_in,
            heads_out=right.heads_out,
            entry=left.entry,
            exit=right.exit,
            policy=POLICY_BOUNDARY,
        )

    entry_windows = []
    exit_windows = []
    for i, (lw, rw) in enumerate(zip(left.entry, right.entry)):
        if lw.symbols and rw.symbols and (lw.lo > rw.hi + 1 or rw.lo > lw.hi + 1):
            raise MergeIncompatible(
                f"tape {i + 1} windows [{lw.lo},{lw.hi}] and [{rw.lo},{rw.hi}] "
                f"touch nowhere, so their union has a gap"
            )
        entry_windows.append(_overlay(lw, rw))
        exit_windows.append(_overlay(right.exit[i], left.exit[i]))
    return IntervalSummary(
        machine=left.machine,
        L=left.L,
        R=right.R,
        q_in=left.q_in,
        q_out=right.q_out,
        heads_in=left.heads_in,
        heads_out=right.heads_out,
        entry=tuple(entry_windows),
        exit=tuple(exit_windows),
        policy=POLICY_FULL,
    )
