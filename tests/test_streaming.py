"""Rolling-boundary streaming simulation against the direct interpreter."""

from __future__ import annotations

import gc
import math
import random
import sys
import tracemalloc
from collections import Counter
from dataclasses import dataclass, field, replace
from itertools import islice
from types import SimpleNamespace

import pytest

import holosim as hs
from holosim import streaming
from holosim.blocks import leaf_summaries
from holosim.samples import counter_input, load_sample, palin_input
from holosim.streaming import VerifySink
from support import (
    CountingSink,
    ReferenceVerifier,
    fold_left_deep,
    oracle_walk,
    random_machine,
    reference_trace,
    tree_depth_for,
    wide_alphabet_machine,
)


def _oracle_and_stream(machine, word, t, b, c_int=2):
    rec = hs.run(machine, word, max_steps=t)
    assert rec.t == t, "test setup: machine must run exactly t steps"
    emitted = []
    ledger = hs.attach_ledger(machine, t, b, c_int=c_int)
    root = hs.holo_run(machine, word, t, b=b, c_int=c_int, sink=emitted.append, ledger=ledger)
    return rec, emitted, root, ledger


def _with_oracle(rec, emitted):
    """Each emission, in time order, beside the oracle configuration at
    its time."""
    return zip(emitted, oracle_walk(rec.history, [cfg.time for cfg in emitted]))


def _assert_in_window_equal(emitted, rec):
    for cfg, oracle in _with_oracle(rec, emitted):
        assert cfg.restricted(cfg.spans) == oracle.restricted(cfg.spans), (
            f"in-window mismatch at time {cfg.time}"
        )


def test_counter_stream_exact():
    m = load_sample("counter")
    t = 256
    rec, emitted, root, ledger = _oracle_and_stream(m, counter_input(10), t, 16)
    assert len(emitted) == t
    assert ledger.dirty_evictions == 0
    for cfg, oracle in _with_oracle(rec, emitted):
        assert cfg == oracle
    assert root.L == 1 and root.R == t
    assert root.q_out == rec.history[t].state


def test_palin_stream_exact():
    m = load_sample("palin")
    word = palin_input(400)
    rec = hs.run(m, word, max_steps=10**4)
    t = rec.t
    emitted = []
    ledger = hs.attach_ledger(m, t, int(math.isqrt(t)) + 1, c_int=2)
    hs.holo_run(m, word, t, b=int(math.isqrt(t)) + 1, sink=emitted.append, ledger=ledger)
    assert ledger.dirty_evictions == 0
    for cfg, oracle in _with_oracle(rec, emitted):
        assert cfg == oracle


def test_sweep_stream_in_window():
    """A head that runs off linearly forces evictions; emitted
    configurations still agree with the oracle on their windows."""
    m = load_sample("sweep")
    t = 1 << 9
    rec, emitted, root, ledger = _oracle_and_stream(m, "", t, 16)
    assert ledger.dirty_evictions > 0
    _assert_in_window_equal(emitted, rec)
    assert root.q_out == rec.history[t].state
    assert root.heads_out == rec.history[t].heads


def test_root_matches_audit_tree():
    m = load_sample("counter")
    word = counter_input(9)
    t = 128
    b = 8
    rec = hs.run(m, word, max_steps=t)
    root = hs.holo_run(m, word, t, b=b)
    tree = hs.build_tree(hs.decompose(t, b))
    audit = hs.label_tree(tree, rec, c_int=2, policy=hs.POLICY_BOUNDARY)
    expect = audit.labels[audit.root.id]
    assert hs.encode_summary(root) == hs.encode_summary(expect)


def test_root_matches_fold():
    m = load_sample("palin")
    word = palin_input(64)
    rec = hs.run(m, word, max_steps=10**4)
    t = rec.t
    b = hs.default_block_length(t)
    root = hs.holo_run(m, word, t, b=b)
    d = hs.decompose(t, b)
    leaves = [
        replace(hs.leaf_summary(rec, d.block(k), 2, b), policy=hs.POLICY_BOUNDARY)
        for k in range(1, d.T + 1)
    ]
    folded = fold_left_deep(leaves)
    assert hs.encode_summary(root) == hs.encode_summary(folded)


def test_run_ended_early():
    m = load_sample("writer2")
    with pytest.raises(hs.RunEndedEarly) as exc:
        hs.holo_run(m, "", 50, b=8)
    assert exc.value.steps_done == 2
    assert exc.value.requested == 50


def test_non_block_respecting_small_capacity():
    m = load_sample("sweep")
    with pytest.raises(hs.NonBlockRespecting) as exc:
        hs.holo_run(m, "", 64, b=1, c_int=1)
    assert vars(exc.value) == {"block": 1, "tape": 1, "span": 2, "limit": 1}


def test_stale_window_reentry():
    """Erase-at-both-ends scanning revisits cells evicted dirty once the
    word is much longer than the live frontier."""
    m = load_sample("palin")
    word = palin_input(4000)  # long enough to overflow a 2*8 cell frontier
    rec = hs.run(m, word, max_steps=10**6)
    with pytest.raises(hs.StaleWindowReentry) as exc:
        hs.holo_run(m, word, rec.t, b=8, c_int=2)
    assert vars(exc.value) == {"tape": 1, "cell": 73, "block": 14}


def test_capture_sink_exactly_once():
    m = load_sample("counter")
    t = 64
    sink = hs.CaptureSink(40)
    hs.holo_run(m, counter_input(8), t, b=8, sink=sink)
    assert sink.hits == 1
    assert sink.config is not None and sink.config.time == 40


def test_counting_sink_all_once():
    m = load_sample("counter")
    t = 200
    sink = CountingSink()
    hs.holo_run(m, counter_input(8), t, b=14, sink=sink)
    assert sink.all_once(t)


def test_counting_sink_refuses_wrong_times():
    """t distinct times seen once each are not enough: they must be 1..t."""
    t = 10

    def fed(times):
        sink = CountingSink()
        for time in times:
            sink(SimpleNamespace(time=time))
        return sink

    assert fed(range(1, t + 1)).all_once(t)
    assert not fed(range(0, t)).all_once(t)
    assert not fed([1, 2, 3, *range(5, 12)]).all_once(t)
    assert not fed([*range(1, t + 1), 4]).all_once(t)
    assert not fed(range(1, t)).all_once(t)


# an edit that leaves a cell that left its window without its revert
_KEEP = object()


@dataclass(frozen=True)
class _Step:
    """One step as a step sink sees it: the time, the transition value,
    and the engine's heads and windows after the step.  A test puts
    faults in through `edits`, (tape, cell, symbol) shown by the
    reported tape after the step (None a blank, _KEEP a cell that left
    its window without its revert), and through `sent`, False for a
    step the engine takes without telling the sink."""

    tau: int
    value: tuple
    heads: tuple[int, ...]
    spans: tuple[tuple[int, int], ...]
    edits: tuple = ()
    sent: bool = True


class _StepLog:
    """A step sink that records each step."""

    def __init__(self):
        self.steps: list[_Step] = []

    def start_run(self, run) -> None:
        self.run = run

    def step(self, tau, value) -> None:
        run = self.run
        spans = tuple([(ts.lo, ts.hi) for ts in run.tapes])
        self.steps.append(_Step(tau, value, tuple(run.heads), spans))


def _record(machine, word, t, b, c_int=2):
    """The steps of a streamed run, up to its model violation if any,
    and the violation's class or None."""
    log = _StepLog()
    try:
        hs.holo_run(machine, word, t, b=b, c_int=c_int, sink=log)
    except hs.ModelViolation as exc:
        return log.steps, type(exc)
    return log.steps, None


def _put(tape, cell, sym):
    if sym is None:
        tape.pop(cell, None)
    else:
        tape[cell] = sym


class _StandIn:
    """An engine rebuilt from its steps alone.  Each step writes its
    value's symbols under the last heads, moves the heads and windows to
    the step's, shows the initial symbol at each cell that left its
    window, and then shows the step's edits."""

    def __init__(self, machine, word):
        c0 = hs.initial_configuration(machine, word)
        self.machine = machine
        self.initial = c0.cells
        self.heads = list(c0.heads)
        self.tapes = [
            SimpleNamespace(lo=lo, hi=hi, live=dict(cells))
            for cells, (lo, hi) in zip(c0.cells, c0.spans)
        ]

    def apply(self, st: _Step) -> None:
        blank = self.machine.blank
        keep = {(i, cell) for i, cell, sym in st.edits if sym is _KEEP}
        per_tape = zip(self.tapes, self.initial, self.heads, st.value[1], st.spans)
        for i, (ts, initial, head, sym, (lo, hi)) in enumerate(per_tape):
            _put(ts.live, head, None if sym == blank else sym)
            for cell in range(ts.lo, ts.hi + 1):
                if not lo <= cell <= hi and (i, cell) not in keep:
                    _put(ts.live, cell, initial.get(cell))
            ts.lo, ts.hi = lo, hi
        self.heads[:] = st.heads
        for i, cell, sym in st.edits:
            if sym is not _KEEP:
                _put(self.tapes[i].live, cell, sym)

    def configuration(self, st: _Step) -> hs.Configuration:
        return hs.Configuration(
            self.machine,
            st.tau,
            st.value[0],
            tuple(self.heads),
            tuple([dict(ts.live) for ts in self.tapes]),
            tuple([(ts.lo, ts.hi) for ts in self.tapes]),
        )


def _feed(sink, emissions):
    """Hand emissions to sink in order: after each, (compared, strict),
    or the error message that stopped the sink."""
    verdicts = []
    for cfg in emissions:
        try:
            sink(cfg)
        except hs.InternalInvariantError as exc:
            verdicts.append(str(exc))
            break
        verdicts.append((sink.compared, sink.strict))
    return verdicts


def _step_verdicts(machine, word, steps, after=None):
    """A VerifySink's verdicts on steps fed through a _StandIn, as _feed
    gives them, and the configurations the stand-in showed at the steps
    sent, the one that stopped the sink included.  after(sink, run), if
    given, runs after each step the sink accepts."""
    sink, run = VerifySink(machine, word), _StandIn(machine, word)
    sink.start_run(run)
    verdicts, shown = [], []
    for st in steps:
        run.apply(st)
        if not st.sent:
            continue
        shown.append(run.configuration(st))
        try:
            sink.step(st.tau, st.value)
        except hs.InternalInvariantError as exc:
            verdicts.append(str(exc))
            break
        verdicts.append((sink.compared, sink.strict))
        if after is not None:
            after(sink, run)
    return verdicts, shown


def _counter_steps():
    m = load_sample("counter")
    steps, exc = _record(m, counter_input(10), 256, 16)
    assert exc is None and len(steps) == 256
    return m, steps


def _with(steps, tau, **changes):
    """steps with the step at time tau changed."""
    steps = list(steps)
    steps[tau - 1] = replace(steps[tau - 1], **changes)
    return steps


def _other_write(m, value):
    q, writes, moves = value
    sym = next(s for s in m.work_alphabet if s not in (m.blank, writes[0]))
    return q, (sym, *writes[1:]), moves


@pytest.mark.parametrize(
    "fault",
    [
        lambda m, st: {"value": _other_write(m, st.value)},
        lambda m, st: {"value": (m.reject, *st.value[1:])},
        lambda m, st: {"heads": (st.heads[0] + 1,)},
    ],
    ids=["cell-in-span", "state", "head"],
)
def test_verify_sink_rejects_wrong_emission(fault):
    """A step with a wrong symbol written inside its window, a wrong
    state or a wrong head raises at that step."""
    m, steps = _counter_steps()
    stream = _with(steps, 100, **fault(m, steps[99]))
    assert _step_verdicts(m, counter_input(10), stream)[0] == [(i, i) for i in range(1, 100)] + [
        "emission at t=100 disagrees with direct simulation inside its window"
    ]


def test_verify_sink_counts_strict_emissions():
    """A correct strict run counts every step strict.  A cell that
    leaves its window showing a symbol other than the oracle's lowers
    only the strict count, once for each step it stays out, and a
    windowed run whose evicted cells all keep their written symbols is
    strict: the count is of cells that differ, not of reverts."""
    m, steps = _counter_steps()
    word = counter_input(10)
    assert _step_verdicts(m, word, steps)[0][-1] == (256, 256)
    # the window loses its top cell at step 250 and stays so
    lo, hi = steps[249].spans[0]
    assert all(st.spans[0] == (lo, hi) for st in steps[249:])
    run = _StandIn(m, word)
    for st in steps[:250]:
        run.apply(st)
    wrong = next(s for s in m.work_alphabet if s not in (m.blank, run.tapes[0].live.get(hi)))
    stream = steps[:249] + [replace(st, spans=((lo, hi - 1),)) for st in steps[249:]]
    stream = _with(stream, 250, edits=((0, hi, wrong),))
    assert _step_verdicts(m, word, stream)[0][-1] == (256, 249)
    sweep = load_sample("sweep")
    steps, _ = _record(sweep, "", 300, 10)
    assert _step_verdicts(sweep, "", steps)[0][-1] == (300, 19)
    kept = [
        replace(st, edits=((0, last.spans[0][0], _KEEP),)) if st.spans != last.spans else st
        for last, st in zip(steps, steps[1:])
    ]
    assert _step_verdicts(sweep, "", steps[:1] + kept)[0][-1] == (300, 300)


def test_verify_sink_checks_written_cells():
    """A step is checked at the cell each tape wrote: at each step of a
    counter run that wrote a new symbol, a reported tape that still
    shows the old one raises at that step."""
    m, steps = _counter_steps()
    word = counter_input(10)
    run, lost = _StandIn(m, word), []
    for st in steps:
        w = run.heads[0]
        before = run.tapes[0].live.get(w)
        run.apply(st)
        if run.tapes[0].live.get(w) != before:
            lost.append((st.tau, w, before))
    assert len(lost) > 100
    for tau, w, before in lost:
        stream = _with(steps[:tau], tau, edits=((0, w, before),))
        assert _step_verdicts(m, word, stream)[0] == [(i, i) for i in range(1, tau)] + [
            f"emission at t={tau} disagrees with direct simulation inside its window"
        ]


def test_verify_sink_refuses_skipped_and_late_times():
    """Steps come one per time, and none past the oracle's halt."""
    m, steps = _counter_steps()
    word = counter_input(10)
    for stream, error in [
        (steps[:99] + steps[100:], "emission at t=101 does not follow t=99"),
        (steps[:99] + steps[98:], "emission at t=99 does not follow t=99"),
    ]:
        assert _step_verdicts(m, word, stream)[0][-2:] == [(99, 99), error]
    # counter on 0000 halts after 57 steps
    steps, exc = _record(m, "0000", 57, 8)
    assert exc is None and hs.run(m, "0000", 100).t == 57
    late = replace(steps[-1], tau=58)
    assert _step_verdicts(m, "0000", steps + [late])[0][-2:] == [
        (57, 57),
        "emission at t=58 comes after direct simulation halted at t=57",
    ]


def _assert_faithful(machine, word, t, b, c_int=2):
    """The steps a step sink sees, with the windows it reads, rebuild
    every configuration the engine emits in the same run, and a
    VerifySink attached to that run gives ReferenceVerifier's last
    verdict on those emissions.  Returns the run's violation class or
    None."""
    steps, exc = _record(machine, word, t, b, c_int)
    emitted = []
    try:
        hs.holo_run(machine, word, t, b=b, c_int=c_int, sink=emitted.append)
    except hs.ModelViolation as caught:
        assert type(caught) is exc, machine.name
    else:
        assert exc is None, machine.name
    assert [cfg.time for cfg in emitted] == [st.tau for st in steps]
    run = _StandIn(machine, word)
    for st, cfg in zip(steps, emitted):
        run.apply(st)
        mirror = run.configuration(st)
        assert (cfg, cfg.spans) == (mirror, mirror.spans), (machine.name, st.tau)
    sink = VerifySink(machine, word)
    try:
        hs.holo_run(machine, word, t, b=b, c_int=c_int, sink=sink)
    except hs.ModelViolation:
        pass
    verdicts = _feed(ReferenceVerifier(hs.run(machine, word, max_steps=t).history), emitted)
    assert (sink.compared, sink.strict) == (verdicts[-1] if verdicts else (0, 0))
    return exc


@pytest.mark.parametrize(
    "name, word, t, b",
    [
        ("counter", counter_input(10), 256, 16),
        ("palin", palin_input(256), 256, 16),
        ("sweep", "", 300, 10),
        ("writer2", "", 2, 1),
    ],
    ids=["counter", "palin", "sweep", "writer2"],
)
def test_step_stream_is_faithful(name, word, t, b):
    """What makes VerifySink's per-step check sound: a reported tape
    changes only at the cell each tape wrote and at the cells that left
    its window, which show their initial symbol."""
    assert _assert_faithful(load_sample(name), word, t, b) is None


def test_step_stream_is_faithful_random_machines():
    """The same over random machines at tight windows, every violation
    included."""
    rng = random.Random(3232)
    outcomes = set()
    for _ in range(300):
        m = random_machine(rng)
        n = rng.randint(0, 8) if m.input_alphabet else 0
        word = "".join(rng.choice(m.input_alphabet) for _ in range(n))
        t, b, c_int = rng.randint(1, 90), rng.randint(1, 4), rng.randint(1, 2)
        outcomes.add(_assert_faithful(m, word, t, b, c_int))
    assert outcomes == {
        None,
        hs.NonBlockRespecting,
        hs.StaleWindowReentry,
        hs.RunEndedEarly,
    }, outcomes


_FAULTS = ("value", "head", "spurious", "span", "skip", "revert", "missing", "late")


def _inject_faults(rng, machine, initial, steps, ended, faults=_FAULTS):
    """steps with one to three random faults of the kinds in faults: a
    wrong transition value (state, symbol written or move), a head off
    by one, a revert of the written cell while it is still in the
    window, a window moved at one step or at every step that shares it,
    a skipped step, a wrong revert symbol, a missing revert, and, when
    the oracle halts at the last step, a step past the halt."""
    steps = list(steps)
    work = machine.work_alphabet

    def left(n, i):
        (lo0, hi0), (lo, hi) = steps[n - 1].spans[i] if n else (0, 0), steps[n].spans[i]
        return [cell for cell in range(lo0, hi0 + 1) if not lo <= cell <= hi]

    def moved():
        return [(n, i) for n in range(len(steps)) for i in range(machine.k) if left(n, i)]

    kinds = [k for k in faults if (k not in ("revert", "missing") or moved()) and (k != "late" or ended)]
    # windows move first, so that an edit lands on a cell that left the
    # window or on the written cell, the cells a step changes
    drawn = sorted((rng.choice(kinds) for _ in range(rng.randint(1, 3))), key=lambda k: k != "span")
    for kind in drawn:
        if kind in ("revert", "missing"):
            if not moved():
                continue
            n, i = rng.choice(moved())
        else:
            n, i = rng.randrange(len(steps)), rng.randrange(machine.k)
        st = steps[n]
        lo, hi = st.spans[i]
        if kind == "value":
            q, writes, moves = st.value
            part = rng.randrange(3)
            if part == 0:
                q = rng.choice(machine.states)
            elif part == 1:
                writes = writes[:i] + (rng.choice(work),) + writes[i + 1 :]
            else:
                moves = moves[:i] + (rng.choice((-1, 0, 1)),) + moves[i + 1 :]
            steps[n] = replace(st, value=(q, writes, moves))
        elif kind == "head":
            heads = list(st.heads)
            heads[i] += rng.choice((-1, 1))
            steps[n] = replace(st, heads=tuple(heads))
        elif kind in ("revert", "missing"):
            cell = rng.choice(left(n, i))
            revert = initial[i].get(cell, machine.blank)
            sym = _KEEP if kind == "missing" else rng.choice([s for s in work if s != revert])
            sym = None if sym == machine.blank else sym
            steps[n] = replace(st, edits=st.edits + ((i, cell, sym),))
        elif kind == "spurious":
            w = steps[n - 1].heads[i] if n else 0
            steps[n] = replace(st, edits=st.edits + ((i, w, initial[i].get(w)),))
        elif kind == "span":
            lo, hi = lo + rng.randint(-2, 2), hi + rng.randint(-2, 2)
            new = (min(lo, hi), max(lo, hi))
            end = n + 1
            if rng.random() < 0.5:
                while end < len(steps) and steps[end].spans[i] == st.spans[i]:
                    end += 1
            for j in range(n, end):
                spans = steps[j].spans
                steps[j] = replace(steps[j], spans=spans[:i] + (new,) + spans[i + 1 :])
        elif kind == "skip":
            steps[n] = replace(st, sent=False)
        elif kind == "late":
            steps.append(replace(steps[-1], tau=steps[-1].tau + 1, edits=(), sent=True))
    return steps


def _checked_verdicts(machine, word, rec, steps):
    """VerifySink's verdicts on steps, after checking that they equal
    ReferenceVerifier's on the configurations the stand-in showed, and
    that after each accepted step the sink holds each window and counts
    as stale exactly the cells outside it where the reported tape
    differs from the oracle.  A skipped or late step, which only the
    step checker refuses, is compared up to the refusal."""
    cursor = hs.HistoryCursor(rec.history)

    def counted(sink, run):
        cursor.advance_to(sink.time)
        assert sink.spans == [(ts.lo, ts.hi) for ts in run.tapes]
        for i, ts in enumerate(run.tapes):
            want = cursor.cells[i]
            stale = [c for c in ts.live.keys() | want.keys() if ts.live.get(c) != want.get(c)]
            assert sink.stale[i] == len(stale)
        assert sink.exact == (not any(sink.stale))

    verdicts, shown = _step_verdicts(machine, word, steps, counted)
    if verdicts and isinstance(verdicts[-1], str) and not verdicts[-1].endswith("its window"):
        assert verdicts[:-1] == _feed(ReferenceVerifier(rec.history), shown[:-1]), machine.name
    else:
        assert verdicts == _feed(ReferenceVerifier(rec.history), shown), machine.name
    return verdicts


def test_verify_sink_matches_reference_verifier():
    """VerifySink against ReferenceVerifier, the history-walking sink it
    replaced, on 1000 random and wide-alphabet machines at tight
    windows, halts and all three violations included.  Each run's steps
    are fed through a stand-in engine clean, with random faults of every
    kind, and with faults in the windows and reverts alone, and
    both give the same verdict at every step on the configurations the
    stand-in shows; only the step checker refuses a skipped or late
    step.  After each accepted step the sink's stale counts are exact."""
    rng, faults = random.Random(1717), random.Random(1718)
    outcomes = {}
    windowed = halted = raised = lowered = refused = 0
    for run_no in range(1000):
        m = wide_alphabet_machine(rng) if run_no % 5 == 0 else random_machine(rng)
        n = rng.randint(0, 8) if m.input_alphabet else 0
        word = [rng.choice(m.input_alphabet) for _ in range(n)]
        budget = rng.randint(1, 60)
        rec = hs.run(m, word, max_steps=budget)
        t = rec.t if rec.t and rng.random() < 0.5 else budget
        b, c_int = rng.randint(1, 4), rng.randint(1, 2)
        steps, exc = _record(m, word, t, b, c_int)
        outcomes[exc] = outcomes.get(exc, 0) + 1
        if not steps:
            continue
        ended = rec.halt_reason != "budget" and steps[-1].tau == rec.t
        halted += exc is None and ended
        clean = _checked_verdicts(m, word, rec, steps)
        assert clean == [(i, clean[i - 1][1]) for i in range(1, len(steps) + 1)], m.name
        windowed += clean[-1][1] < clean[-1][0]
        initial = hs.initial_configuration(m, word).cells
        for kinds in (_FAULTS, ("span", "revert", "missing")):
            stream = _inject_faults(faults, m, initial, steps, ended, kinds)
            faulty = _checked_verdicts(m, word, rec, stream)
            if faulty and isinstance(faulty[-1], str):
                raised += 1
                refused += not faulty[-1].endswith("its window")
            elif faulty:
                lowered += faulty[-1][1] < clean[-1][1]
    assert set(outcomes) == {
        None,
        hs.NonBlockRespecting,
        hs.StaleWindowReentry,
        hs.RunEndedEarly,
    }, outcomes
    assert windowed > 100 and halted > 50 and raised > 200 and lowered > 50 and refused > 50, (
        windowed, halted, raised, lowered, refused,
    )


def test_reconstruct_at_matches_oracle():
    m = load_sample("counter")
    word = counter_input(8)
    t = 100
    rec = hs.run(m, word, max_steps=t)
    taus = (1, 7, 50, 99, 100)
    for tau, oracle in zip(taus, oracle_walk(rec.history, taus)):
        cfg = hs.reconstruct_at(m, word, t, tau, b=10)
        assert cfg == oracle
    with pytest.raises(ValueError):
        hs.reconstruct_at(m, word, t, 0)
    with pytest.raises(ValueError):
        hs.reconstruct_at(m, word, t, t + 1)
    # only the prefix up to tau is streamed, so a huge t costs nothing
    assert hs.reconstruct_at(m, word, 2**40, 5) == hs.run(m, word, max_steps=5).history[5]
    # ... and emits what the full t-step walk emits at tau, spans and
    # evicted cells included
    m = load_sample("sweep")
    t, b = 300, 10
    emitted = []
    hs.holo_run(m, "", t, b=b, sink=emitted.append)
    for want in emitted:
        got = hs.reconstruct_at(m, "", t, want.time, b=b)
        assert got == want and got.spans == want.spans


@dataclass
class _LeafLog(hs.ScreenLedger):
    """A ledger that also logs, at each leaf start, (leaf, depth, pending
    digests) and each parked digest's (L, R, q_in, heads_in,
    entry_spans)."""

    leaves: list[tuple[int, int, int]] = field(default_factory=list)
    parked: list[tuple] = field(default_factory=list)

    def start_leaf(self, run) -> None:
        self.leaves.append((run.leaf_id, run.depth_now, len(run.pending)))
        self.parked.extend((d.L, d.R, d.q_in, d.heads_in, d.entry_spans) for d in run.pending)
        super().start_leaf(run)


def _tree_positions(tree) -> list[tuple[int, int, int]]:
    """(leaf, depth, right-going edges on the root path) per leaf, in
    leaf order, read off the static tree."""
    positions = []
    for k in range(1, tree.T + 1):
        node, rights = tree.root, 0
        while not node.is_leaf:
            left = tree.node(node.left)
            if k <= left.leaf_hi:
                node = left
            else:
                node, rights = tree.node(node.right), rights + 1
        positions.append((k, node.depth, rights))
    return positions


def _walk(m, word, rec, t, b, c_int) -> tuple[type | None, int]:
    """Stream t steps of rec's run through a _LeafLog, up to a model
    violation if any.  The leaves walked must be the static tree's, or a
    prefix of them after a violation, and each parked digest's entry
    interface must be the leaf summary of the block of its first step.
    Returns the violation's type and the number of parked digests that
    merge more than one leaf."""
    ledger = _LeafLog(gamma=len(m.work_alphabet), t=t, b=b, c_int=c_int)
    outcome = None
    try:
        hs.holo_run(m, word, t, b=b, c_int=c_int, ledger=ledger)
    except hs.ModelViolation as exc:
        outcome = type(exc)
    decomp = hs.decompose(t, b)
    positions = _tree_positions(hs.build_tree(decomp))
    walked = positions if outcome is None else positions[: len(ledger.leaves)]
    assert ledger.leaves == walked, (t, b)
    # every parked digest starts at a block the walk finished
    needed = max(((L - 1) // b + 1 for L, *_ in ledger.parked), default=0)
    leaves = list(islice(leaf_summaries(rec, decomp, c_int), needed))
    merged = 0
    for L, R, q_in, heads_in, entry_spans in ledger.parked:
        block = decomp.block((L - 1) // b + 1)
        s = leaves[(L - 1) // b]
        assert block[0] == L
        assert (q_in, heads_in, entry_spans) == (
            s.q_in,
            s.heads_in,
            tuple(w.span for w in s.entry),
        ), (t, b, L, R)
        merged += R > block[1]
    return outcome, merged


def test_walk_follows_static_tree():
    """The engine's real walk, seen through the ledger's leaf-start
    event over criterion 2's grid: leaves 1..T in order, each at its
    static tree depth, with one parked digest per right-going edge, and
    every parked digest, merged ones included, carrying the entry state,
    heads and window spans of its first leaf."""
    m = load_sample("sweep")
    walks = merged = 0
    for t in [*range(1, 129), 300, 1000]:
        rec = hs.run(m, "", max_steps=t)
        for b in sorted({1, 3, hs.default_block_length(t), t}):
            outcome, n = _walk(m, "", rec, t, b, 2)
            assert outcome is None
            walks += 1
            merged += n
    assert walks > 400 and merged > 1000


def test_walk_follows_static_tree_random_machines():
    """The same walk and digest checks on random machines at tight
    windows, violations included."""
    rng = random.Random(1515)
    outcomes = set()
    merged = 0
    for _ in range(150):
        m = random_machine(rng)
        n = rng.randint(0, 8) if m.input_alphabet else 0
        word = "".join(rng.choice(m.input_alphabet) for _ in range(n))
        t, b, c_int = rng.randint(1, 200), rng.randint(1, 5), rng.randint(1, 3)
        rec = hs.run(m, word, max_steps=t)
        outcome, n = _walk(m, word, rec, t, b, c_int)
        outcomes.add(outcome)
        merged += n
    assert outcomes == {
        None,
        hs.NonBlockRespecting,
        hs.StaleWindowReentry,
        hs.RunEndedEarly,
    }, outcomes
    assert merged > 100


def test_pending_stack_bounded_by_depth():
    m = load_sample("counter")
    word = counter_input(12)
    for t, b in ((777, 13), (1024, 32), (500, 7)):
        rec = hs.run(m, word, max_steps=t)
        if rec.t < t:
            continue
        ledger = hs.attach_ledger(m, t, b)
        hs.holo_run(m, word, t, b=b, ledger=ledger)
        T = hs.decompose(t, b).T
        depth = tree_depth_for(T)
        assert ledger.max_pending <= depth


def test_ledger_series_screen_not_above_total():
    m = load_sample("palin")
    word = palin_input(256)
    rec = hs.run(m, word, max_steps=10**5)
    t = rec.t
    b = hs.default_block_length(t)
    ledger = hs.attach_ledger(m, t, b, keep_series=True)
    hs.holo_run(m, word, t, b=b, ledger=ledger)
    assert ledger.steps_recorded == t
    assert len(ledger.series) == t
    for row in ledger.series:
        assert row.screen <= row.total
        assert row.total == row.screen + row.book
    assert ledger.max_screen == max(r.screen for r in ledger.series)
    assert ledger.max_book == max(r.book for r in ledger.series)


def test_block_length_default_is_sqrt_ceiling():
    for t in (1, 2, 3, 4, 5, 15, 16, 17, 100, 1023, 1024, 1025, 2**200 + 1, 2**1100):
        b = hs.default_block_length(t)
        assert (b - 1) ** 2 < t <= b * b
    assert hs.default_block_length(2**200) == 2**100


def _outside(cells, span):
    lo, hi = span
    return {c: s for c, s in cells.items() if not lo <= c <= hi}


def test_stream_matches_oracle_random_machines():
    """Random machines on non-empty inputs, at window sizes small enough
    to evict clean and dirty cells: each emission equals the oracle
    inside its spans (outright if nothing dirty was evicted), reports
    the initial tape outside them, and the root equals the one-pass
    boundary summary."""
    rng = random.Random(2026)
    done = dirty_runs = 0
    while done < 60:
        m = random_machine(rng)
        if not m.input_alphabet:
            continue
        word = "".join(rng.choice(m.input_alphabet) for _ in range(rng.randint(1, 8)))
        rec = hs.run(m, word, max_steps=rng.choice([30, 60, 90]))
        if rec.t < 2:
            continue
        t, b, c_int = rec.t, rng.randint(1, 4), rng.randint(1, 2)
        emitted = []
        ledger = hs.attach_ledger(m, t, b, c_int=c_int)
        try:
            root = hs.holo_run(
                m, word, t, b=b, c_int=c_int, sink=emitted.append, ledger=ledger
            )
        except hs.ModelViolation:
            continue
        initial = rec.history[0]
        assert [cfg.time for cfg in emitted] == list(range(1, t + 1))
        for cfg, oracle in _with_oracle(rec, emitted):
            assert cfg.restricted(cfg.spans) == oracle.restricted(cfg.spans)
            if ledger.dirty_evictions == 0:
                assert cfg == oracle
            for i, span in enumerate(cfg.spans):
                assert _outside(cfg.cells[i], span) == _outside(initial.cells[i], span)
        d = hs.decompose(t, b)
        expect = hs.direct_summary(rec, d, 1, d.T, c_int, hs.POLICY_BOUNDARY)
        assert hs.encode_summary(root) == hs.encode_summary(expect)
        dirty_runs += ledger.dirty_evictions > 0
        done += 1
    assert dirty_runs > 0


def _reference_stream(machine, word, t, b, c_int):
    """The plain window discipline over the test-side interpreter:
    every head passes through the full arrival check at every step.
    Returns each emission as (time, state, heads, cells, spans), the
    step of each dirty eviction, and the ModelViolation raised or None."""
    blank, cap = machine.blank, c_int * b
    initial = [{c: s for c, s in enumerate(word) if s != blank}] + [{}] * (machine.k - 1)
    lo, hi = [0] * machine.k, [0] * machine.k
    lost_lo, lost_hi = [0] * machine.k, [-1] * machine.k
    blk_lo, blk_hi = [0] * machine.k, [0] * machine.k
    emitted, reverts = [], []
    trace = reference_trace(machine, word, t)
    _, _, prev_heads, _ = next(trace)
    try:
        for tau, state, heads, cells in trace:
            block = (tau - 1) // b + 1
            if (tau - 1) % b == 0:
                blk_lo, blk_hi = list(prev_heads), list(prev_heads)
            for i, cell in enumerate(heads):
                if not lo[i] <= cell <= hi[i]:
                    if lost_lo[i] <= cell <= lost_hi[i]:
                        raise hs.StaleWindowReentry(i + 1, cell, block)
                    if cell < lo[i]:
                        lo[i] = cell
                    else:
                        hi[i] = cell
                    while hi[i] - lo[i] + 1 > cap:
                        evict = lo[i] if cell == hi[i] else hi[i]
                        if blk_lo[i] <= evict <= blk_hi[i]:
                            raise hs.NonBlockRespecting(block, i + 1, hi[i] - lo[i] + 1, cap)
                        if cells[i].get(evict, blank) != initial[i].get(evict, blank):
                            if lost_lo[i] > lost_hi[i]:
                                lost_lo[i] = lost_hi[i] = evict
                            else:
                                lost_lo[i] = min(lost_lo[i], evict)
                                lost_hi[i] = max(lost_hi[i], evict)
                            reverts.append(tau)
                        if evict == lo[i]:
                            lo[i] += 1
                        else:
                            hi[i] -= 1
                blk_lo[i] = min(blk_lo[i], cell)
                blk_hi[i] = max(blk_hi[i], cell)
            reported = tuple(
                {c: s for c, s in initial[i].items() if not lo[i] <= c <= hi[i]}
                | {c: s for c, s in cells[i].items() if lo[i] <= c <= hi[i]}
                for i in range(machine.k)
            )
            spans = tuple(zip(lo, hi))
            emitted.append((tau, state, heads, reported, spans))
            prev_heads = heads
        if len(emitted) < t:
            raise hs.RunEndedEarly(len(emitted), t)
    except hs.ModelViolation as exc:
        return emitted, reverts, exc
    return emitted, reverts, None


def test_stream_matches_reference_discipline_random_machines():
    """The leaf loop skips heads inside their block hull; on random
    machines at tight windows, violations included, it emits, evicts and
    raises exactly as the full arrival check on every head would."""
    rng = random.Random(4242)
    outcomes = {}
    dirty_runs = 0
    for _ in range(150):
        m = random_machine(rng)
        n = rng.randint(0, 8) if m.input_alphabet else 0
        word = "".join(rng.choice(m.input_alphabet) for _ in range(n))
        t, b, c_int = rng.randint(1, 90), rng.randint(1, 4), rng.randint(1, 2)
        want, want_reverts, want_exc = _reference_stream(m, word, t, b, c_int)
        got = []
        ledger = hs.attach_ledger(m, t, b, c_int=c_int)
        got_exc = root = None
        try:
            root = hs.holo_run(m, word, t, b=b, c_int=c_int, sink=got.append, ledger=ledger)
        except hs.ModelViolation as exc:
            got_exc = exc
        assert [(c.time, c.state, c.heads, c.cells, c.spans) for c in got] == want
        assert ledger.dirty_evictions == len(want_reverts)
        assert type(got_exc) is type(want_exc)
        if want_exc is None:
            rec = hs.run(m, word, max_steps=t)
            d = hs.decompose(t, b)
            expect = hs.direct_summary(rec, d, 1, d.T, c_int, hs.POLICY_BOUNDARY)
            assert hs.encode_summary(root) == hs.encode_summary(expect)
        else:
            assert vars(got_exc) == vars(want_exc) and str(got_exc) == str(want_exc)
        outcomes[type(want_exc)] = outcomes.get(type(want_exc), 0) + 1
        dirty_runs += bool(want_reverts)
    assert set(outcomes) == {
        type(None),
        hs.NonBlockRespecting,
        hs.StaleWindowReentry,
        hs.RunEndedEarly,
    }, outcomes
    assert dirty_runs > 0


def _sharing_run(machine, word, t, b, c_int):
    """Stream a run and derive from the oracle side which emissions may
    share the previous emission's cells and spans: cells exactly when
    the step wrote no different symbol (the reference tape did not
    change), reverted no dirty cell and is not the first step of a leaf;
    spans exactly when no window bound moved.

    Returns one row per emission after the first, (tau, got, want,
    wrote, reverted), where got and want are (cells shared, spans
    shared) and wrote says per tape whether step tau changed it; and the
    ModelViolation raised, or None."""
    want, reverts, want_exc = _reference_stream(machine, word, t, b, c_int)
    tapes = [row[3] for row in islice(reference_trace(machine, word, t), len(want) + 1)]
    got = []
    try:
        hs.holo_run(machine, word, t, b=b, c_int=c_int, sink=got.append)
    except hs.ModelViolation as exc:
        assert type(exc) is type(want_exc)
    assert len(got) == len(want)
    rows = []
    for prev, cfg, (*_, prev_spans), (tau, *_, spans) in zip(got, got[1:], want, want[1:]):
        wrote = tuple(now != then for now, then in zip(tapes[tau], tapes[tau - 1]))
        reverted = tau in reverts
        rows.append(
            (
                tau,
                (cfg.cells is prev.cells, cfg.spans is prev.spans),
                (not any(wrote) and not reverted and (tau - 1) % b != 0, spans == prev_spans),
                wrote,
                reverted,
            )
        )
    return rows, want_exc


def test_emissions_share_what_did_not_change_bundled():
    """On the bundled machines, consecutive emissions share cells and
    spans exactly as the oracle side says they may; palin, with its idle
    input tape, shares most steps and sweep, which writes every step,
    none."""
    shared = {}
    for name, word, t, b, c_int in [
        ("counter", counter_input(8), 600, 25, 2),
        ("palin", palin_input(600), 600, 25, 2),
        ("sweep", "", 300, 16, 2),
        ("palin", palin_input(200), 200, 9, 3),
        ("writer2", "", 2, 1, 2),
    ]:
        rows, exc = _sharing_run(load_sample(name), word, t, b, c_int)
        assert exc is None
        assert [row[1] for row in rows] == [row[2] for row in rows], name
        shared[name] = shared.get(name, 0) + sum(row[1][0] for row in rows)
    assert shared["palin"] > 600 and shared["counter"] > 200 and shared["sweep"] == 0


def test_emissions_share_what_did_not_change_random_machines():
    """Random machines at tight windows, violations included: an
    emission shares the previous cells exactly when its step wrote no
    different symbol, reverted no dirty cell and did not start a leaf,
    and the previous spans exactly when no window moved.  The corpus
    holds each way a shared copy could go stale unnoticed: a write to a
    tape past the first alone, a revert alone and a leaf start alone."""
    rng = random.Random(1313)
    seen = {"shared": 0, "later tape alone": 0, "revert alone": 0, "leaf start alone": 0}
    outcomes = set()
    for _ in range(160):
        m = random_machine(rng)
        n = rng.randint(0, 8) if m.input_alphabet else 0
        word = "".join(rng.choice(m.input_alphabet) for _ in range(n))
        t, b, c_int = rng.randint(1, 90), rng.randint(1, 4), rng.randint(1, 2)
        rows, exc = _sharing_run(m, word, t, b, c_int)
        outcomes.add(type(exc))
        assert [row[1] for row in rows] == [row[2] for row in rows], m.name
        for tau, (shared, _), _, wrote, reverted in rows:
            leaf_start = (tau - 1) % b == 0
            seen["shared"] += shared
            seen["later tape alone"] += any(wrote[1:]) and not wrote[0]
            seen["revert alone"] += reverted and not any(wrote) and not leaf_start
            seen["leaf start alone"] += leaf_start and not any(wrote) and not reverted
    assert all(seen.values()), seen
    assert outcomes == {
        type(None),
        hs.NonBlockRespecting,
        hs.StaleWindowReentry,
        hs.RunEndedEarly,
    }, outcomes


@pytest.mark.skipif(sys.implementation.name != "cpython", reason="counts CPython references")
@pytest.mark.parametrize(
    "name, word, t, b",
    [
        ("counter", counter_input(8), 600, 25),
        ("palin", palin_input(600), 600, 25),
        ("sweep", "", 300, 16),
    ],
    ids=["counter", "palin", "sweep"],
)
def test_engine_releases_the_shared_copy(name, word, t, b):
    """At most one emitted copy per tape is alive: by the time an
    emission carries fresh cells (after a write or a dirty revert) and
    at each leaf end, nothing in the engine, local variables included,
    still references the previous emission's cells."""
    held = []
    refs = []
    leaf_ends = 0

    def released():
        # one reference from held, one from getrefcount's argument
        refs.append(sys.getrefcount(held[0]))

    def leaf_end(frame, event, arg):
        # a profile function sees a frame's return while its locals
        # are still alive
        nonlocal leaf_ends
        if event == "return" and frame.f_code is hs.RollingState._run_leaf.__code__:
            leaf_ends += 1
            released()

    def sink(cfg):
        if held and cfg.cells is not held[0]:
            released()
        held[:] = [cfg.cells]

    engine = hs.RollingState(load_sample(name), word, t, b, sink=sink)
    outer = sys.getprofile()
    sys.setprofile(leaf_end)
    try:
        engine.run()
    finally:
        sys.setprofile(outer)
    assert leaf_ends == engine.T and engine.shown_cells is None
    assert len(refs) > engine.T and set(refs) == {2}


@pytest.mark.parametrize(
    "corrupt",
    [
        lambda ts, heads: setattr(ts, "blk_hi", ts.hi + 1),
        lambda ts, heads: setattr(ts, "blk_lo", ts.lo - 1),
        lambda ts, heads: heads.__setitem__(ts.index, ts.blk_hi + 1),
    ],
    ids=["hull-above-window", "hull-below-window", "head-off-hull"],
)
def test_audit_checks_block_hull(corrupt):
    """The audit holds the invariant the leaf loop's skip relies on."""
    m = load_sample("counter")
    engine = hs.RollingState(m, counter_input(8), 100, 10)
    engine.run()
    engine._audit()
    corrupt(engine.tapes[0], engine.heads)
    with pytest.raises(hs.InternalInvariantError, match="block hull"):
        engine._audit()


@pytest.mark.parametrize("with_sink", [False, True], ids=["bare", "sink"])
@pytest.mark.parametrize(
    "error",
    [hs.StaleWindowReentry, hs.NonBlockRespecting, hs.RunEndedEarly],
    ids=["StaleWindowReentry", "NonBlockRespecting", "RunEndedEarly"],
)
def test_clock_and_state_after_a_violation(error, with_sink):
    """A run that raises leaves engine.tau and engine.state at its last
    completed step, as the reference interpreter has it: a step whose
    arrival raised is not completed.  engine.heads hold the violating
    step's moves, which the kernel applied before it yielded; a halt
    has no further step.  The runs are random machines'; a violation
    past the first leaf and one at a step that changes the state each
    occur."""
    rng = random.Random(2702)
    runs = later = changing = 0
    for _ in range(400):
        m = random_machine(rng)
        n = rng.randint(0, 12) if m.input_alphabet else 0
        word = "".join(rng.choice(m.input_alphabet) for _ in range(n))
        t, b, c_int = rng.randint(1, 120), rng.randint(1, 6), rng.randint(1, 2)
        emitted: list[int] = []
        sink = (lambda c: emitted.append(c.time)) if with_sink else None
        engine = hs.RollingState(m, word, t, b, c_int, sink)
        try:
            engine.run()
        except error:
            pass
        except hs.ModelViolation:
            continue
        else:
            continue
        trace = list(reference_trace(m, word, engine.tau + 1))
        done = trace[engine.tau]
        assert (engine.tau, engine.state) == done[:2]
        moved = done if error is hs.RunEndedEarly else trace[engine.tau + 1]
        assert tuple(engine.heads) == moved[2]
        if with_sink:
            assert emitted == list(range(1, engine.tau + 1))
        runs += 1
        later += engine.tau > b
        changing += len(trace) > engine.tau + 1 and trace[engine.tau + 1][1] != done[1]
    assert runs > 10 and later > 3
    # RunEndedEarly comes at a halt, where there is no further step
    assert changing > 3 or error is hs.RunEndedEarly, (runs, later, changing)


def test_audit_fires_without_a_sink():
    """A hull corrupted mid-leaf in a bare run is caught by the audit at
    the next multiple of audit_stride, so the audit reads the leaf's
    clock with no sink attached."""
    t = 2**13
    engine = hs.RollingState(load_sample("palin"), palin_input(t), t, 91)
    stride, corrupt_at = engine.audit_stride, 100
    due = -(-corrupt_at // stride) * stride
    L, R = engine.decomp.block(2)
    assert L < corrupt_at < due <= R and due % 91 != 1
    stepper = engine.stepper

    def corrupted():
        for tau, value in enumerate(stepper, 1):
            if tau == corrupt_at:
                ts = engine.tapes[1]
                ts.blk_lo = ts.lo - 1
            yield value

    engine.stepper = corrupted()
    with pytest.raises(hs.InternalInvariantError) as exc:
        engine.run()
    assert "block hull" in str(exc.value)
    assert str(exc.value).endswith(f"at step {due}")
    assert engine.tau == due


def test_arrive_only_when_a_window_moves(monkeypatch):
    """On palin at the benchmark's size most steps take a head off its
    block hull, but only a step that moves a window calls _arrive; the
    loop grows the hull itself for the rest.  Counted bare and with a
    sink, whose emissions' spans change exactly that often."""
    calls = 0
    arrive = hs.RollingState._arrive

    def counted(self, ts, cell, block_index):
        nonlocal calls
        calls += 1
        arrive(self, ts, cell, block_index)

    monkeypatch.setattr(hs.RollingState, "_arrive", counted)
    m = load_sample("palin")
    t = 2**13
    b = hs.default_block_length(t)
    assert b == 91
    hs.holo_run(m, palin_input(t), t, b)
    bare, calls = calls, 0
    spans = [((0, 0),) * m.k]
    heads = [(0,) * m.k]
    hulls: list[list[int]] = []
    off_hull = 0

    def sink(c):
        nonlocal off_hull
        if c.time % b == 1:
            hulls[:] = [[h, h] for h in heads[-1]]
        off = False
        for hull, h in zip(hulls, c.heads):
            if not hull[0] <= h <= hull[1]:
                hull[0], hull[1] = min(hull[0], h), max(hull[1], h)
                off = True
        off_hull += off
        if c.spans != spans[-1]:
            spans.append(c.spans)
        heads.append(c.heads)

    hs.holo_run(m, palin_input(t), t, b, sink=sink)
    assert bare == calls == len(spans) - 1 == 130
    assert off_hull == 6020


def test_sweep_slides_full_windows_without_arrive(monkeypatch):
    """Every step of sweep moves a window, but a bare run calls _arrive
    only while its window fills: afterwards each step slides the full
    window by its bounds, and _settle evicts the cells that left, one
    pass a leaf.  With a sink every window move goes through _arrive and
    nothing is owed.  At t = 2^13 and b = 91."""
    calls = {"arrive": 0, "settle": 0, "settled": 0}
    arrive, settle = hs.RollingState._arrive, hs.RollingState._settle

    def counted_arrive(self, ts, cell, block_index):
        calls["arrive"] += 1
        arrive(self, ts, cell, block_index)

    def counted_settle(self, ts):
        calls["settle"] += 1
        calls["settled"] += abs(ts.lo - ts.settled_lo)
        settle(self, ts)

    monkeypatch.setattr(hs.RollingState, "_arrive", counted_arrive)
    monkeypatch.setattr(hs.RollingState, "_settle", counted_settle)
    m = load_sample("sweep")
    t, b = 2**13, 91
    hs.holo_run(m, "", t, b)
    assert calls == {"arrive": 181, "settle": 90, "settled": t - 181}
    calls.update(arrive=0, settle=0, settled=0)
    hs.holo_run(m, "", t, b, sink=lambda c: None)
    assert calls == {"arrive": t, "settle": 0, "settled": 0}


def _observed_run(m, word, t, b, c_int, sink=None, ledger=None):
    """The outcome of a streamed run, the root's bytes or the error's
    class, fields and message, and the engine's state after it; every
    ledger event and metered step must find no cell owed, and neither
    may the end of the run."""

    def settled(event):
        def call(*args):
            assert all(ts.settled_lo == ts.lo for ts in engine.tapes)
            event(*args)

        return call

    if ledger is not None:
        ledger.start_leaf = settled(ledger.start_leaf)
        ledger.refresh_tape = settled(ledger.refresh_tape)
        ledger.step = settled(ledger.step)
    engine = hs.RollingState(m, word, t, b, c_int, sink, ledger)
    try:
        outcome = hs.encode_summary(engine.run())
    except hs.ModelViolation as exc:
        outcome = (type(exc), vars(exc), str(exc))
    assert all(ts.settled_lo == ts.lo for ts in engine.tapes)
    tapes = [
        (ts.live, ts.lo, ts.hi, ts.lost_lo, ts.lost_hi, ts.blk_lo, ts.blk_hi)
        for ts in engine.tapes
    ]
    return outcome, (engine.tau, engine.state, engine.heads, tapes)


def test_runs_with_and_without_an_observer_agree(monkeypatch):
    """A bare run, or a run whose ledger is cold, slides full windows by
    their bounds and evicts the cells that left later; a run with a sink
    evicts each at once.  Over random machines, violations included, a
    run with a no-op sink, the same run bare and the same run with a
    gated ledger end alike: the root or the error, and the engine's
    clock, state, heads and tapes.  The ledger's figures equal those of
    a gated ledger beside the sink.  Slides up and down are both left
    owed, and settles of several cells occur."""
    settles: list[int] = []
    settle = hs.RollingState._settle

    def counted(self, ts):
        settles.append(ts.lo - ts.settled_lo)
        settle(self, ts)

    monkeypatch.setattr(hs.RollingState, "_settle", counted)
    rng = random.Random(3434)
    outcomes: Counter = Counter()
    for _ in range(320):
        m = random_machine(rng)
        n = rng.randint(0, 12) if m.input_alphabet else 0
        word = "".join(rng.choice(m.input_alphabet) for _ in range(n))
        t, b, c_int = rng.randint(1, 400), rng.randint(1, 5), rng.randint(1, 2)
        observed = _observed_run(m, word, t, b, c_int, sink=lambda c: None)
        metered = hs.attach_ledger(m, t, b, c_int=c_int)
        _observed_run(m, word, t, b, c_int, sink=lambda c: None, ledger=metered)
        assert not settles, "a run with a sink owes no cell"
        assert _observed_run(m, word, t, b, c_int) == observed
        ledger = hs.attach_ledger(m, t, b, c_int=c_int)
        assert _observed_run(m, word, t, b, c_int, ledger=ledger) == observed
        assert ledger == metered
        outcomes["root" if type(observed[0]) is bytes else observed[0][0].__name__] += 1
        outcomes["up"] += sum(owed > 0 for owed in settles)
        outcomes["down"] += sum(owed < 0 for owed in settles)
        outcomes["several"] += sum(abs(owed) > 1 for owed in settles)
        settles.clear()
    assert len(outcomes) == 7, outcomes
    assert min(outcomes.values()) > 10, outcomes


def _walk_engine(corrupt=None, leaf=None):
    """A counter run of t = 100 in ten leaves, whose walk (node ids in
    preorder: leaf 1 is node 4, the pair [9, 10] node 16) hands the
    digest of leaf `leaf` to corrupt(engine, digest) and goes on with
    what it returns."""
    engine = hs.RollingState(load_sample("counter"), counter_input(8), 100, 10)
    if corrupt is not None:
        run_leaf = engine._run_leaf

        def corrupted(k, depth):
            digest = run_leaf(k, depth)
            return corrupt(engine, digest) if k == leaf else digest

        engine._run_leaf = corrupted
    return engine


def _bottom_of_stack(engine, digest):
    engine.pending.insert(0, digest)
    return digest


def _top_of_stack(engine, digest):
    engine.pending.append(digest)
    return digest


def _drop_last_exit(engine, digest):
    engine.last_exit = None
    return digest


@pytest.mark.parametrize(
    "leaf, corrupt, message",
    [
        (
            1,
            lambda e, d: replace(d, heads_out=(d.heads_out[0] + 1,)),
            "digest parked at step 10 disagrees with the frontier",
        ),
        (10, lambda e, d: replace(d, L=92), "digest intervals [81,90] and [92,100] are not"),
        (10, lambda e, d: replace(d, q_in="lost"), "digest interfaces disagree at step 90: "),
        (10, _top_of_stack, "pending stack corrupted at node 16"),
        (10, _drop_last_exit, "walk finished without boundary windows"),
        (10, _bottom_of_stack, "1 digests left pending"),
        (10, lambda e, d: replace(d, R=99), "root digest covers [1,99], expected [1,100]"),
    ],
    ids=[
        "park", "adjacency", "interfaces", "stack-pop", "boundary-windows", "left-pending",
        "root-cover",
    ],
)
def test_walk_checks_digests(leaf, corrupt, message):
    """Each tree-walk check refuses a leaf digest or walk state that a
    correct engine never makes."""
    with pytest.raises(hs.InternalInvariantError) as exc:
        _walk_engine(corrupt, leaf).run()
    assert str(exc.value).startswith(message)


def test_leaf_checks_the_clock():
    engine = _walk_engine()
    engine.tau = 3
    with pytest.raises(hs.InternalInvariantError) as exc:
        engine.run()
    assert str(exc.value) == "leaf 1 starts at step 0 but clock is at 3"


def test_capture_sink_refuses_a_second_delivery():
    m = load_sample("counter")
    config = hs.run(m, counter_input(8), 10).history[5]
    sink = hs.CaptureSink(5)
    sink(config)
    assert sink.config is config and sink.hits == 1
    with pytest.raises(hs.InternalInvariantError, match=r"^time 5 emitted 2 times$"):
        sink(config)


def test_reconstruct_at_refuses_a_run_that_stops_short(monkeypatch):
    """A stream that ends before tau never delivers it."""
    holo_run = streaming.holo_run
    monkeypatch.setattr(
        streaming, "holo_run", lambda m, word, t, **kw: holo_run(m, word, t - 1, **kw)
    )
    with pytest.raises(hs.InternalInvariantError, match=r"^time 40 was never emitted$"):
        hs.reconstruct_at(load_sample("counter"), counter_input(8), 100, 40, b=10)


def test_engine_keeps_no_per_cell_state():
    """After a bare run on each bundled machine, every tape slot but the
    reported tape and the initial tape holds one int or str: the engine
    keeps no other per-cell container."""
    for name, word in (
        ("writer2", ""),
        ("sweep", ""),
        ("counter", counter_input(8)),
        ("palin", palin_input(300)),
    ):
        m = load_sample(name)
        t = min(hs.probe_run_length(m, word, 300)[0], 300)
        engine = hs.RollingState(m, word, t, hs.default_block_length(t))
        engine.run()
        for ts in engine.tapes:
            for slot in type(ts).__slots__:
                if slot not in ("live", "initial"):
                    assert isinstance(getattr(ts, slot), (int, str)), (name, slot)


@pytest.mark.skipif(sys.implementation.name != "cpython", reason="reads tracemalloc")
@pytest.mark.parametrize(
    "name, word", [("counter", counter_input(20)), ("sweep", "")], ids=["counter", "sweep"]
)
def test_heap_does_not_grow_with_run_length(name, word):
    """The engine keeps no per-block state: at b = 32, going from
    t = 2^12 (128 blocks) to t = 2^16 (2048 blocks) moves a bare run's
    tracemalloc peak by a few KiB, since only the pending stack grows
    with T, as log T.  A table of every block's (L, R) would add about
    130 bytes a block, some 250 KiB."""
    m = load_sample(name)
    hs.holo_run(m, word, 256, b=32)  # build what every run shares first

    def peak_kib(t):
        gc.collect()
        tracemalloc.start()
        try:
            hs.holo_run(m, word, t, b=32)
            return tracemalloc.get_traced_memory()[1] / 1024
        finally:
            tracemalloc.stop()

    small, large = peak_kib(2**12), peak_kib(2**16)
    assert large - small < 8, (small, large)


def test_run_arguments_are_checked():
    m = load_sample("counter")
    with pytest.raises(ValueError, match="t must be"):
        hs.RollingState(m, counter_input(4), 0, 4)
    with pytest.raises(ValueError, match="c_int"):
        hs.RollingState(m, counter_input(4), 8, 4, c_int=0)
    with pytest.raises(ValueError, match="t must be"):
        hs.default_block_length(0)


def test_single_block_run():
    m = load_sample("counter")
    t = 11
    rec = hs.run(m, counter_input(4), max_steps=t)
    assert rec.t == t
    emitted = []
    root = hs.holo_run(m, counter_input(4), t, b=t, sink=emitted.append)
    assert len(emitted) == t
    for cfg, oracle in _with_oracle(rec, emitted):
        assert cfg == oracle
    assert (root.L, root.R) == (1, t)


def test_block_length_one():
    m = load_sample("counter")
    t = 26
    word = counter_input(4)
    rec = hs.run(m, word, max_steps=t)
    emitted = []
    # cap c_int*b must still cover the full head range of the increment
    root = hs.holo_run(m, word, t, b=1, c_int=8, sink=emitted.append)
    assert len(emitted) == t
    _assert_in_window_equal(emitted, rec)
    assert root.q_out == rec.history[t].state


def test_prefix_of_longer_run():
    """t below the halting time simulates the prefix."""
    m = load_sample("counter")
    word = counter_input(10)
    t = 300
    rec = hs.run(m, word, max_steps=t)
    assert rec.halt_reason == "budget"
    sink = CountingSink()
    root = hs.holo_run(m, word, t, b=20, sink=sink)
    assert sink.all_once(t)
    assert root.R == t


def test_writer2_exact_tiny():
    m = load_sample("writer2")
    rec = hs.run(m, "", max_steps=10)
    t = rec.t
    emitted = []
    root = hs.holo_run(m, "", t, b=1, sink=emitted.append)
    for cfg, oracle in _with_oracle(rec, emitted):
        assert cfg == oracle
    assert root.q_out == m.accept
