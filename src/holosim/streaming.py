"""Rolling-boundary streaming simulation in roughly sqrt(t) space.

The simulator walks the balanced block tree depth first without ever
materializing it.  At any instant it holds:

* one live window per tape: a contiguous cell range of capacity
  c_int * b containing the head, backed by the tape's reported
  contents (see below);
* a pending stack of boundary digests, one per left sibling on the
  root-to-current path, so at most tree-depth many;
* the hull of the block currently being replayed: per tape, the cell
  range its head has visited since the block began;
* the retained entry windows of block 1, needed for the root summary.

It keeps no per-block state: a leaf's step interval is computed from
(t, b) when the leaf starts (BlockDecomposition lists no blocks), so
nothing but the pending stack grows with the number of blocks, and that
only as its logarithm.

No entry symbols of the current block are kept.  A parked digest needs
only the spans of its entry windows, which are the hulls; only block 1's
symbols reach the root summary, and since that block enters at time 0
they are the initial tape's.

Cells that fall out of a live window are recoverable from the initial
tape as long as they were clean (still holding their initial symbol)
when evicted.  Evicting a rewritten cell loses information; the
simulator notes it, and a later head excursion into the discarded
region raises StaleWindowReentry rather than fabricating contents.
Machines whose runs are block respecting at the chosen b and c_int
never trigger either condition and their emitted configurations match
direct simulation exactly.

Each tape keeps one dict of non-blank cells, the reported tape: the
live contents inside the window and the initial tape outside it.  An
evicted cell reverts to its initial symbol (a bare step may leave that
to a later pass, below).  Emitted configurations
carry a copy of those dicts as their cells and the live-window bounds
as their spans.  The cells outside every span are correct whenever no
dirty cell has been evicted; after a dirty eviction only the in-span
cells are trustworthy.

A sink with a start_run method is a step sink and takes no
configurations: the engine calls start_run(engine) once, as it does a
ledger's, and then step(tau, value) after each step with the kernel's
transition value, and the sink reads heads, windows and reported tapes
off the engine.  A step changes a reported tape only at the cell each
head wrote and at the cells that left the window, which revert to the
initial tape, so a step sink can follow every tape in O(k) a step plus
the cells its windows moved by.  VerifySink is one.

Emissions are read-only, and consecutive ones share objects: the next
emission reuses the last one's cells tuple unless its step wrote a
different symbol (checked at the one cell each tape wrote, against the
last emission) or a dirty eviction reverted a cell, and its spans tuple
unless a window moved.  A step that changes nothing so costs O(k) to
emit, not a copy of every tape.  Each leaf's first emission copies
afresh, so no copy outlives its leaf and at most one retained copy per
tape is alive.

One loop per leaf takes the leaf's steps from the stepping kernel and,
after each, compares every head with its block hull, the cells the head
has visited since the block began.  A head inside the hull costs that
one comparison: heads move one cell a step, so the hull is exactly the
visited set, and an eviction inside the hull raises NonBlockRespecting,
so the hull lies inside the live window.  A head that steps off its
hull but stays in its window only grows the hull by one cell, in the
loop; a head that steps off its window goes through the window
discipline in _arrive, but for one case the loop handles itself.

That case is a full window sliding by one cell in a step no observer
sees: no sink is attached and any ledger is cold (`hot` is false).  If
the cell leaving is outside the block hull, so the step raises no
NonBlockRespecting, and the lost hull is empty or on the window's far
side, so the head's new cell is no lost cell, the loop only moves the
window's bounds and the hull's end.  The cells that left keep their
contents, owed, until _settle evicts them in one pass: before _arrive
on their tape, on every tape before each ledger event, and when the
leaf ends, on a violation too.  A ledger meters a step only while it
is hot, when no window slides, so it always reads settled tapes; a
violation leaves the engine as _arrive would have; and a window owes
at most b cells.  Owed cells lie on one side
of their window: after a slide one way the hull reaches that window
end, so a slide back evicts a hull cell and goes through _arrive.  A
sink step or a hot ledger step evicts at once, in _arrive: settling
every step costs more than it saves.

The clock and state of the last completed step live in locals of the
loop.  The clock reaches the engine before a sink call or an audit,
both of which read it, and both reach it when the leaf ends, on a
violation too.  So a bare step costs the kernel's yield, one hull test
per tape and the clock's increment, and a bare step that slides a full
window a few more tests and the stores of three bounds, with its share
of one C-level eviction pass a leaf.

The engine holds simulation state only.  An attached ScreenLedger is
told of the run start, each leaf start and each hull growth that takes
a head past one of its tape's fences, one call each, and computes every
charge itself from that state; the engine adds the steps it completes
and the dirty cells it evicts to the ledger's counts.  The ledger sets
the fences so that no row can beat a maximum while every head stays
inside them; the loop reads the two fence lists once per leaf, and a
growth inside its fence costs one comparison.  Between events the
ledger keeps a `hot` flag that says whether a row can beat a maximum,
so the loop meters a step only while the flag is set and otherwise
pays one flag test; at each leaf end the loop adds the steps the leaf
completed.  Bare, sink and
replay runs pay one None test per step and per hull growth, and a run
with a sink one more per step, for a step sink.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain, compress, islice, repeat
from operator import is_not
from typing import Callable

from .blocks import POLICY_BOUNDARY, IntervalSummary, TapeWindow, decompose, tape_window
from .ctree import split_left_count
from .errors import (
    InternalInvariantError,
    NonBlockRespecting,
    RunEndedEarly,
    StaleWindowReentry,
)
from .ledger import ScreenLedger
from .machine import Configuration, MachineSpec, initial_configuration, normalize_input, steps

# a configuration sink; a step sink (module docstring) is passed the same way
Sink = Callable[[Configuration], None]


@dataclass(slots=True)
class BoundaryDigest:
    """Structural residue of a summarized leaf range: interface data
    only, no tape symbols.  entry_spans are the spans of the range's
    entry windows, those of its first leaf.

    A slotted record, not a frozen one, as Configuration is: the walk
    builds about two a leaf.  Treat it as a value all the same."""

    L: int
    R: int
    q_in: str
    q_out: str
    heads_in: tuple[int, ...]
    heads_out: tuple[int, ...]
    entry_spans: tuple[tuple[int, int], ...]


class _TapeState:
    """One tape's window [lo, hi] and its reported tape `live`: the
    non-blank cells of the live contents inside the window and of
    `initial` outside it.  The stepping kernel writes `live` in place.

    [blk_lo, blk_hi] is the block hull, the cells visited since the
    block began.  The hull only grows one cell at a time and never
    loses a cell to eviction, so a head inside it needs no window or
    hull update.  Every slot but `initial` and `live` holds an int or
    a str: no per-cell state beyond the reported tape.

    `settled_lo` marks where the owed cells begin: those a full window
    slid off in steps no observer saw (module docstring), which keep
    their contents and stay out of the lost hull until
    RollingState._settle evicts them.  It is lo as it was when the
    window last evicted every cell that left it, so the owed cells run
    up from settled_lo to lo - 1 after slides up, and down from
    settled_lo + cap - 1 to hi + 1 after slides down, in the order they
    left; a window that owes cells is full and stays full.  `live` and
    the lost hull are the reported tape and lost hull while settled_lo
    is lo, which it is between leaves and at every ledger event."""

    __slots__ = (
        "index",
        "blank",
        "cap",
        "initial",
        "live",
        "lo",
        "hi",
        "lost_lo",
        "lost_hi",
        "blk_lo",
        "blk_hi",
        "settled_lo",
    )

    def __init__(self, index: int, blank: str, cap: int, initial: dict[int, str]):
        self.index = index
        self.blank = blank
        self.cap = cap
        self.initial = initial
        self.live = dict(initial)
        self.lo = 0
        self.hi = 0
        # empty hulls use lo > hi
        self.lost_lo, self.lost_hi = 0, -1
        self.blk_lo = 0
        self.blk_hi = 0
        self.settled_lo = 0


class RollingState:
    """The streaming simulator's working set and its driver.

    Construct via holo_run unless the internals are the point.  run()
    returns the boundary-policy summary of the whole interval [1, t],
    and after it completes the attached ledger (if any) holds the space
    series.

    After run() raises StaleWindowReentry or NonBlockRespecting, `tau`,
    `state` and the ledger describe the last completed step, but `heads`
    and the tapes' `live` dicts already hold the violating step's moves
    and writes: the stepping kernel applies a step before it yields it.
    The engine then holds no configuration of the run.
    """

    def __init__(
        self,
        machine: MachineSpec,
        input_word,
        t: int,
        b: int,
        c_int: int = 2,
        sink: Sink | None = None,
        ledger: ScreenLedger | None = None,
    ):
        if t < 1:
            raise ValueError(f"t must be >= 1, got {t}")
        if c_int < 1:
            raise ValueError(f"c_int must be >= 1, got {c_int}")
        self.machine = machine
        self.t = t
        self.b = b
        self.cap = c_int * b
        self.decomp = decompose(t, b)
        self.T = self.decomp.T
        self.sink = sink
        self.ledger = ledger

        blank = machine.blank
        tape_one = {
            c: sym
            for c, sym in enumerate(normalize_input(machine, input_word))
            if sym != blank
        }
        self.tapes = [
            _TapeState(i, blank, self.cap, tape_one if i == 0 else {})
            for i in range(machine.k)
        ]
        self.state = machine.start
        self.heads = [0] * machine.k
        self.stepper = steps(machine, self.state, self.heads, [ts.live for ts in self.tapes])
        self.tau = 0
        self.pending: list[BoundaryDigest] = []
        self.next_id = 0
        self.retained_entry: tuple[TapeWindow, ...] | None = None
        self.last_exit: tuple[TapeWindow, ...] | None = None
        self.depth_now = 0
        self.leaf_id = 0
        self.audit_stride = max(1, int(t**0.5))
        # the last emission's cells and spans, or None once a step has
        # changed them; the next emission shares what is still here
        self.shown_cells: tuple[dict[int, str], ...] | None = None
        self.shown_spans: tuple[tuple[int, int], ...] | None = None
        if ledger is not None:
            if (ledger.t, ledger.b, ledger.c_int) != (t, b, c_int):
                raise ValueError(
                    f"ledger attached for (t, b, c_int) = "
                    f"{(ledger.t, ledger.b, ledger.c_int)}, run has {(t, b, c_int)}"
                )
            ledger.start_run(self)
        # a sink with start_run takes each step's transition value, not
        # a configuration, and reads the rest off the engine
        self.on_step = None
        if hasattr(sink, "start_run"):
            sink.start_run(self)
            self.on_step = sink.step

    # ---- invariants -------------------------------------------------------

    def _audit(self) -> None:
        # the leaf loop skips every head inside its block hull, which is
        # sound only while the hull is the in-window range of the cells
        # visited in the block, head included
        for ts in self.tapes:
            h = self.heads[ts.index]
            if not ts.lo <= ts.blk_lo <= h <= ts.blk_hi <= ts.hi:
                raise InternalInvariantError(
                    f"tape {ts.index + 1}: block hull [{ts.blk_lo},{ts.blk_hi}] "
                    f"and head {h} do not fit window [{ts.lo},{ts.hi}] "
                    f"at step {self.tau}"
                )

    # ---- tape discipline --------------------------------------------------

    def _arrive(self, ts: _TapeState, cell: int, block_index: int) -> None:
        """A head stepped just off its window, and so off its block hull:
        evict the tape's owed cells, refuse a discarded cell, take the
        cell into the window, which then holds at most one cell too
        many, evicted from the far end, and grow the hull by the cell.
        The leaf loop grows the hull itself for a head that stays inside
        its window, and slides a full window itself in a step no
        observer sees."""
        if ts.settled_lo != ts.lo:
            self._settle(ts)
        if ts.lost_lo <= cell <= ts.lost_hi:
            raise StaleWindowReentry(ts.index + 1, cell, block_index)
        self.shown_spans = None
        if cell < ts.lo:
            ts.lo = ts.settled_lo = cell
            evict = ts.hi
        else:
            ts.hi = cell
            evict = ts.lo
        if ts.hi - ts.lo + 1 > ts.cap:
            if ts.blk_lo <= evict <= ts.blk_hi:
                raise NonBlockRespecting(
                    block_index, ts.index + 1, ts.hi - ts.lo + 1, ts.cap
                )
            initial = ts.initial.get(evict, ts.blank)
            if ts.live.get(evict, ts.blank) != initial:
                if ts.lost_lo > ts.lost_hi:
                    ts.lost_lo = ts.lost_hi = evict
                elif evict < ts.lost_lo:
                    ts.lost_lo = evict
                elif evict > ts.lost_hi:
                    ts.lost_hi = evict
                if initial == ts.blank:
                    del ts.live[evict]
                else:
                    ts.live[evict] = initial
                self.shown_cells = None
                if self.ledger is not None:
                    self.ledger.dirty_evictions += 1
            if evict == ts.lo:
                ts.lo = ts.settled_lo = evict + 1
            else:
                ts.hi -= 1
        if cell < ts.blk_lo:
            ts.blk_lo = cell
        else:
            ts.blk_hi = cell

    def _settle(self, ts: _TapeState) -> None:
        """Evict the cells a full window slid off without _arrive, in one
        pass and in the order they left: revert each dirty one, widen the
        lost hull by the first and last dirty cell, and add their count
        to the ledger.  The slides tested every cell against the block
        hull and the lost hull against the arrivals, so nothing raises
        here.  A range without an input cell reverts a cell by deleting
        it, so a cell is dirty exactly when `live` holds it, and C-level
        passes find and delete those; an input cell is reverted in place,
        one at a time, as _arrive does."""
        live, initial, lo = ts.live, ts.initial, ts.lo
        if ts.settled_lo < lo:
            cells = range(ts.settled_lo, lo)
        else:
            cells = range(ts.settled_lo + ts.cap - 1, ts.hi, -1)
        ts.settled_lo = lo
        if not initial or initial.keys().isdisjoint(cells):
            popped = map(live.pop, cells, repeat(None))
            dirty = list(compress(cells, map(is_not, popped, repeat(None))))
        else:
            dirty = []
            blank = ts.blank
            for cell in cells:
                sym = initial.get(cell, blank)
                if live.get(cell, blank) != sym:
                    dirty.append(cell)
                    if sym == blank:
                        del live[cell]
                    else:
                        live[cell] = sym
        if dirty:
            first, last = sorted((dirty[0], dirty[-1]))
            if ts.lost_lo > ts.lost_hi:
                ts.lost_lo, ts.lost_hi = first, last
            else:
                ts.lost_lo = min(ts.lost_lo, first)
                ts.lost_hi = max(ts.lost_hi, last)
            if self.ledger is not None:
                self.ledger.dirty_evictions += len(dirty)

    def _refresh(self, ts: _TapeState) -> None:
        """A head crossed one of its tape's fences: settle every tape, so
        that the ledger reads windows and lost hulls with nothing owed,
        and refresh the tape."""
        for other in self.tapes:
            if other.settled_lo != other.lo:
                self._settle(other)
        self.ledger.refresh_tape(ts)

    # ---- tree walk --------------------------------------------------------

    def _run_leaf(self, k: int, depth: int) -> BoundaryDigest:
        L, R = self.decomp.block(k)
        if self.tau != L - 1:
            raise InternalInvariantError(
                f"leaf {k} starts at step {L - 1} but clock is at {self.tau}"
            )
        self.depth_now = depth
        self.leaf_id = k
        q_in = self.state
        heads_in = tuple(self.heads)
        for ts, h in zip(self.tapes, heads_in):
            ts.blk_lo = ts.blk_hi = h
        ledger = self.ledger
        # the plain function, picked once per leaf without allocating a
        # bound method
        arrive = RollingState._arrive
        if ledger is not None:
            ledger.start_leaf(self)
            # written in place by the ledger; a head that crosses one
            # of its tape's fences is an event
            flo, fhi = ledger.fence_lo, ledger.fence_hi
        sink = self.sink
        on_step = self.on_step
        # no sink sees a step: a full window may slide by its bounds
        # alone while any ledger is cold
        bare = sink is None
        quiet = bare and ledger is None
        blank = self.machine.blank
        tapes = self.tapes
        indices = range(len(tapes))
        heads = self.heads
        stride = self.audit_stride
        # the clock and state of the last completed step: the clock is
        # written to the engine before a sink or the audit reads it, and
        # both when the leaf ends
        tau = L - 1
        state = q_in
        try:
            for value in islice(self.stepper, R - L + 1):
                for ts in tapes:
                    h = heads[ts.index]
                    # inside its block hull a head changes nothing, and
                    # inside its window it only grows the hull
                    if h < ts.blk_lo:
                        if h >= ts.lo:
                            ts.blk_lo = h
                        elif (
                            # a full window slides by its bounds alone in a
                            # step no observer sees, when the cell leaving
                            # is outside the hull (no NonBlockRespecting)
                            # and the lost hull is empty or above (h is no
                            # lost cell); the mirror image below
                            (quiet or bare and not ledger.hot)
                            and (hi := ts.hi) - h == ts.cap
                            and hi > ts.blk_hi
                            and (ts.lost_lo > hi or ts.lost_lo > ts.lost_hi)
                        ):
                            ts.lo = ts.blk_lo = h
                            ts.hi = hi - 1
                        else:
                            arrive(self, ts, h, k)
                        if ledger is not None and h < flo[ts.index]:
                            self._refresh(ts)
                    elif h > ts.blk_hi:
                        if h <= ts.hi:
                            ts.blk_hi = h
                        elif (
                            (quiet or bare and not ledger.hot)
                            and h - (lo := ts.lo) == ts.cap
                            and lo < ts.blk_lo
                            and (ts.lost_hi < lo or ts.lost_lo > ts.lost_hi)
                        ):
                            ts.lo = lo + 1
                            ts.hi = ts.blk_hi = h
                        else:
                            arrive(self, ts, h, k)
                        if ledger is not None and h > fhi[ts.index]:
                            self._refresh(ts)
                state = value[0]
                tau += 1
                if sink is not None:
                    self.tau = tau
                    if on_step is not None:
                        on_step(tau, value)
                    else:
                        cells = self.shown_cells
                        if cells is not None:
                            # the cell each tape wrote, against the last emission
                            writes, moves = value[1], value[2]
                            for i in indices:
                                if cells[i].get(heads[i] - moves[i], blank) != writes[i]:
                                    cells = self.shown_cells = None
                                    break
                        if cells is None:
                            cells = self.shown_cells = tuple([ts.live.copy() for ts in tapes])
                        spans = self.shown_spans
                        if spans is None:
                            spans = self.shown_spans = tuple([(ts.lo, ts.hi) for ts in tapes])
                        sink(Configuration(self.machine, tau, state, tuple(heads), cells, spans))
                        # no local keeps a copy alive once a revert or the
                        # leaf end releases it
                        cells = None
                # a step the gate holds back cannot set a maximum
                if ledger is not None and ledger.hot:
                    ledger.step(tau, heads)
                if tau % stride == 0:
                    self.tau = tau
                    self._audit()
        finally:
            self.tau = tau
            self.state = state
            for ts in tapes:
                if ts.settled_lo != ts.lo:
                    self._settle(ts)
            if ledger is not None:
                ledger.steps_recorded += tau - (L - 1)
        if tau != R:
            raise RunEndedEarly(tau, self.t)
        if sink is not None:
            # the next leaf's first emission copies afresh, so no copy
            # outlives its leaf
            self.shown_cells = None
            for ts in tapes:
                if ts.lost_lo <= ts.lost_hi:
                    # dirty evictions delete cells from live, and CPython
                    # copies a dict with many deleted slots key by key, so
                    # every fresh emission would: compact it in place,
                    # which no emission sees, since each holds a copy
                    compact = ts.live.copy()
                    ts.live.clear()
                    ts.live.update(compact)
        if k == 1:
            # block 1 enters at time 0, on the initial tapes
            self.retained_entry = tuple(
                tape_window(ts.initial, ts.blk_lo, ts.blk_hi, blank) for ts in tapes
            )
        if k == self.T:
            self.last_exit = tuple(
                tape_window(ts.live, ts.blk_lo, ts.blk_hi, blank) for ts in tapes
            )
        return BoundaryDigest(
            L=L,
            R=R,
            q_in=q_in,
            q_out=self.state,
            heads_in=heads_in,
            heads_out=tuple(heads),
            entry_spans=tuple([(ts.blk_lo, ts.blk_hi) for ts in tapes]),
        )

    def _merge_digests(self, left: BoundaryDigest, right: BoundaryDigest) -> BoundaryDigest:
        if left.R + 1 != right.L:
            raise InternalInvariantError(
                f"digest intervals [{left.L},{left.R}] and [{right.L},{right.R}] "
                f"are not adjacent"
            )
        if left.q_out != right.q_in or left.heads_out != right.heads_in:
            raise InternalInvariantError(
                f"digest interfaces disagree at step {left.R}: "
                f"{left.q_out}/{left.heads_out} vs {right.q_in}/{right.heads_in}"
            )
        return BoundaryDigest(
            L=left.L,
            R=right.R,
            q_in=left.q_in,
            q_out=right.q_out,
            heads_in=left.heads_in,
            heads_out=right.heads_out,
            entry_spans=left.entry_spans,
        )

    def _eval_range(self, lo: int, hi: int, depth: int) -> BoundaryDigest:
        self.next_id += 1
        node_id = self.next_id - 1
        if lo == hi:
            return self._run_leaf(lo, depth)
        mid = lo + split_left_count(hi - lo + 1) - 1
        left = self._eval_range(lo, mid, depth + 1)
        # boundary compatibility at park time: the digest's exit side
        # must be the live frontier, or the replay went off the rails
        if left.q_out != self.state or left.heads_out != tuple(self.heads):
            raise InternalInvariantError(
                f"digest parked at step {left.R} disagrees with the frontier"
            )
        self.pending.append(left)
        right = self._eval_range(mid + 1, hi, depth + 1)
        popped = self.pending.pop()
        if popped is not left:
            raise InternalInvariantError(f"pending stack corrupted at node {node_id}")
        return self._merge_digests(popped, right)

    def run(self) -> IntervalSummary:
        digest = self._eval_range(1, self.T, 0)
        if self.retained_entry is None or self.last_exit is None:
            raise InternalInvariantError("walk finished without boundary windows")
        if self.pending:
            raise InternalInvariantError(f"{len(self.pending)} digests left pending")
        root = IntervalSummary(
            machine=self.machine,
            L=1,
            R=self.t,
            q_in=digest.q_in,
            q_out=digest.q_out,
            heads_in=digest.heads_in,
            heads_out=digest.heads_out,
            entry=self.retained_entry,
            exit=self.last_exit,
            policy=POLICY_BOUNDARY,
        )
        if digest.L != 1 or digest.R != self.t:
            raise InternalInvariantError(
                f"root digest covers [{digest.L},{digest.R}], expected [1,{self.t}]"
            )
        return root


def default_block_length(t: int) -> int:
    """ceil(sqrt(t)), the balance point between window size and tree
    depth."""
    if t < 1:
        raise ValueError(f"t must be >= 1, got {t}")
    return math.isqrt(t - 1) + 1


def holo_run(
    machine: MachineSpec,
    input_word,
    t: int,
    b: int | None = None,
    c_int: int = 2,
    sink: Sink | None = None,
    ledger: ScreenLedger | None = None,
) -> IntervalSummary:
    """Stream a t-step run in block-sized space; returns the root
    boundary summary of [1, t].

    t must be the exact run length (or less, for a prefix of a longer
    run); if the machine halts before t the walk raises RunEndedEarly.
    Use probe_run_length to discover the length first.  sink, when
    given, receives one emitted configuration per step in time order,
    or, for a step sink (module docstring), each step's time and
    transition value.  Emissions are read-only: consecutive ones may
    share their cells and spans objects, so a sink that changes one must
    copy it first.
    """
    if b is None:
        b = default_block_length(t)
    engine = RollingState(machine, input_word, t, b, c_int, sink, ledger)
    return engine.run()


class CaptureSink:
    """Sink that keeps the configuration at one target time and checks
    it is delivered exactly once."""

    def __init__(self, target: int):
        self.target = target
        self.config: Configuration | None = None
        self.hits = 0

    def __call__(self, config: Configuration) -> None:
        if config.time == self.target:
            self.hits += 1
            if self.hits > 1:
                raise InternalInvariantError(
                    f"time {self.target} emitted {self.hits} times"
                )
            self.config = config


class VerifySink:
    """Sink that checks each step of a run against direct simulation, run
    in lockstep: the sink owns full oracle tapes and one stepping kernel
    and takes one step per step of the run.  A step must come at the
    next time, with the kernel's state and heads; a cell that disagrees
    with the oracle inside its tape's window raises, and one outside
    every window only keeps the step out of `strict`, the count of steps
    whose tapes equal the oracle outright.

    The sink does not take configurations.  Its start_run hands it the
    engine, and each step hands it the step's time and transition value;
    it reads the heads, the windows and the reported tapes (module
    docstring) off the engine.  A step changes a reported tape only at
    the cell its head wrote and at the cells that left the window, which
    show their revert, so those are the cells the sink reads, with the
    cells that entered the window.  Each costs O(1), so a step costs
    O(k) plus the cells its windows moved by, not a copy of every tape.

    Per tape the sink keeps the window of the last step and `stale`, the
    count of cells outside it where the reported tape differs from the
    oracle.  Inside the window the two agree, or the sink would have
    raised, so a cell that leaves adds to the count when its revert
    differs from the oracle, and a cell that enters must show the
    oracle's symbol.  A written cell outside the last window, which a
    correct engine never has, has the tape counted afresh.

    The sink steps the same kernel, machine.steps, as the engine, so it
    judges the engine's windows, evictions and emissions but not the
    kernel: a fault there moves both sides alike.  The kernel is judged
    by the tests that compare it with the list-tape interpreter and
    naive_step in tests/support.py."""

    def __init__(self, machine: MachineSpec, input_word):
        c0 = initial_configuration(machine, input_word)
        self.oracle = tuple([dict(tape) for tape in c0.cells])
        self.heads = list(c0.heads)
        self.stepper = steps(machine, c0.state, self.heads, self.oracle)
        self.time = 0
        self.run_heads: list[int] = []
        # (engine tape, oracle tape) per tape, set by start_run
        self.pairs: tuple = ()
        self.spans: list[tuple[int, int]] = []
        self.stale = [0] * machine.k
        # no tape has a stale cell
        self.exact = True
        self.compared = 0
        self.strict = 0

    def start_run(self, run) -> None:
        """Take the engine's heads and tapes, and count its initial tapes
        against the oracle's."""
        self.run_heads = run.heads
        self.pairs = tuple(zip(run.tapes, self.oracle))
        self.spans = [(ts.lo, ts.hi) for ts in run.tapes]
        for i in range(len(self.pairs)):
            self._recount(i)

    def step(self, tau: int, value) -> None:
        if tau != self.time + 1:
            raise InternalInvariantError(f"emission at t={tau} does not follow t={self.time}")
        expected = next(self.stepper, None)
        if expected is None:
            raise InternalInvariantError(
                f"emission at t={tau} comes after direct simulation halted at t={self.time}"
            )
        self.time = tau
        heads = self.heads
        # the kernel yields the delta entry itself, so equal values are
        # one object
        if value is not expected and value[0] != expected[0] or self.run_heads != heads:
            raise self._disagrees()
        spans, moves = self.spans, expected[2]
        i = 0
        for ts, tape in self.pairs:
            lo, hi = spans[i]
            # the cell the step wrote, where the oracle's head was
            w = heads[i] - moves[i]
            if ts.lo == lo and ts.hi == hi and lo <= w <= hi:
                if ts.live.get(w) != tape.get(w):
                    raise self._disagrees()
            else:
                self._move_span(i, w)
            i += 1
        self.compared += 1
        self.strict += self.exact

    def _disagrees(self) -> InternalInvariantError:
        return InternalInvariantError(
            f"emission at t={self.time} disagrees with direct simulation "
            f"inside its window"
        )

    def _recount(self, i: int) -> None:
        """Compare tape i with the oracle's cell by cell: raise at a
        difference inside the window, count those outside it."""
        ts, tape = self.pairs[i]
        lo, hi, live = ts.lo, ts.hi, ts.live
        stale = 0
        for cell in live.keys() | tape.keys():
            if live.get(cell) != tape.get(cell):
                if lo <= cell <= hi:
                    raise self._disagrees()
                stale += 1
        self.stale[i] = stale
        self.exact = not any(self.stale)
        self.spans[i] = (lo, hi)

    def _move_span(self, i: int, w: int) -> None:
        """Tape i's window moved, or the cell w it wrote lies outside it.
        The cells that left the window are stale where their revert
        differs from the oracle; the cells that entered it, and w if it
        is still inside, must show the oracle's symbol."""
        ts, tape = self.pairs[i]
        (lo0, hi0), lo1, hi1 = self.spans[i], ts.lo, ts.hi
        if not lo0 <= w <= hi0:
            self._recount(i)
            return
        if lo1 == lo0 + 1 and hi1 == hi0 + 1:
            # a full window slid by one cell, as it does on every step
            # of a head that keeps going
            gone, came = (lo0,), (hi1,)
        elif lo1 == lo0 - 1 and hi1 == hi0 - 1:
            gone, came = (hi0,), (lo1,)
        else:
            gone = chain(range(lo0, min(lo1, hi0 + 1)), range(max(hi1 + 1, lo0), hi0 + 1))
            came = chain(range(lo1, min(lo0, hi1 + 1)), range(max(hi0 + 1, lo1), hi1 + 1))
        live = ts.live
        stale = 0
        for cell in gone:
            stale += live.get(cell) != tape.get(cell)
        for cell in came:
            if live.get(cell) != tape.get(cell):
                raise self._disagrees()
        if lo1 <= w <= hi1 and live.get(w) != tape.get(w):
            raise self._disagrees()
        if stale:
            self.stale[i] += stale
            self.exact = False
        self.spans[i] = (lo1, hi1)


def reconstruct_at(
    machine: MachineSpec,
    input_word,
    t: int,
    tau: int,
    b: int | None = None,
    c_int: int = 2,
) -> Configuration:
    """Return the configuration a streamed t-step run emits at time tau,
    1 <= tau <= t.  Only [1, tau] is streamed, in the t-step run's
    blocks; t only fixes the default b, and a halt or window violation
    after tau goes unreported."""
    if not 1 <= tau <= t:
        raise ValueError(f"tau {tau} outside [1, {t}]")
    if b is None:
        b = default_block_length(t)
    sink = CaptureSink(tau)
    holo_run(machine, input_word, tau, b=b, c_int=c_int, sink=sink)
    if sink.config is None:
        raise InternalInvariantError(f"time {tau} was never emitted")
    return sink.config
