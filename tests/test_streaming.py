"""Rolling-boundary streaming simulation against the direct interpreter."""

from __future__ import annotations

import gc
import math
import random
import sys
import tracemalloc
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


def _flip_cell(cfg, cell):
    """cfg with tape 1's cell set to another non-blank symbol."""
    m = cfg.machine
    tape = dict(cfg.cells[0])
    tape[cell] = next(s for s in m.work_alphabet if s not in (m.blank, tape.get(cell)))
    return replace(cfg, cells=(tape, *cfg.cells[1:]))


def _verify_counter(mutate_at_100=lambda c: c):
    """VerifySink over a strict counter run whose emission at time 100
    is passed through mutate_at_100."""
    m = load_sample("counter")
    rec, emitted, _, _ = _oracle_and_stream(m, counter_input(10), 256, 16)
    sink = VerifySink(m, counter_input(10))
    for cfg in emitted:
        sink(mutate_at_100(cfg) if cfg.time == 100 else cfg)
    return sink


@pytest.mark.parametrize(
    "mutate",
    [
        lambda c: _flip_cell(c, c.heads[0]),
        lambda c: replace(c, state=c.machine.reject),
        lambda c: replace(c, heads=(c.heads[0] + 1,)),
    ],
    ids=["cell-in-span", "state", "head"],
)
def test_verify_sink_rejects_wrong_emission(mutate):
    with pytest.raises(hs.InternalInvariantError, match="t=100 disagrees"):
        _verify_counter(mutate)


def test_verify_sink_counts_strict_emissions():
    sink = _verify_counter()
    assert sink.compared == sink.strict == 256
    # a wrong cell outside every span shows only in the strict count
    sink = _verify_counter(lambda c: _flip_cell(c, c.spans[0][1] + 1))
    assert sink.compared == 256 and sink.strict == 255


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


def test_verify_sink_checks_written_cells_of_shared_emissions():
    """An emission that reuses the last cells and spans objects is
    checked at the cells its step wrote: a stale copy replayed at a step
    that wrote a new symbol raises, and a flip carried by every emission
    that shares one copy keeps each of them out of the strict count."""
    m = load_sample("counter")
    _, emitted, _, _ = _oracle_and_stream(m, counter_input(10), 256, 16)
    replays = [
        n
        for n in range(1, len(emitted))
        if emitted[n].spans is emitted[n - 1].spans and emitted[n].cells != emitted[n - 1].cells
    ]
    assert len(replays) > 20
    for n in replays:
        stale = replace(emitted[n], cells=emitted[n - 1].cells)
        verdicts = _feed(VerifySink(m, counter_input(10)), emitted[:n] + [stale])
        assert verdicts == [(i, i) for i in range(1, n + 1)] + [
            f"emission at t={n + 1} disagrees with direct simulation inside its window"
        ]
    cells = emitted[99].cells
    sharing = sum(cfg.cells is cells for cfg in emitted)
    assert sharing > 1
    flipped = _flip_cell(emitted[99], emitted[99].spans[0][1] + 1).cells
    stream = [replace(cfg, cells=flipped) if cfg.cells is cells else cfg for cfg in emitted]
    assert _feed(VerifySink(m, counter_input(10)), stream)[-1] == (256, 256 - sharing)


def test_verify_sink_refuses_skipped_and_late_times():
    """Emissions come one per step, and none past the oracle's halt."""
    m = load_sample("counter")
    _, emitted, _, _ = _oracle_and_stream(m, counter_input(10), 256, 16)
    for stream, error in [
        (emitted[:99] + emitted[100:], "emission at t=101 does not follow t=99"),
        (emitted[:99] + emitted[98:], "emission at t=99 does not follow t=99"),
    ]:
        assert _feed(VerifySink(m, counter_input(10)), stream)[-2:] == [(99, 99), error]
    # counter on 0000 halts after 57 steps
    rec, emitted, _, _ = _oracle_and_stream(m, "0000", 57, 8)
    assert rec.halt_reason != "budget"
    late = replace(emitted[-1], time=58)
    assert _feed(VerifySink(m, "0000"), emitted + [late])[-2:] == [
        (57, 57),
        "emission at t=58 comes after direct simulation halted at t=57",
    ]


def _inject_faults(rng, stream):
    """The stream with one to three random faults: a cell set to a
    random symbol (a stored blank included) near or inside its span, a
    span moved, the last emission's cells and spans replayed, a wrong
    state or a wrong head.  A fault on cells or spans goes, at random,
    to that emission alone or to every emission sharing the object."""
    stream = list(stream)
    m = stream[0].machine
    for _ in range(rng.randint(1, 3)):
        n = rng.randrange(len(stream))
        cfg = stream[n]
        i = rng.randrange(m.k)
        kind = rng.choice(("cell", "span", "replay", "state", "head"))
        if kind == "replay" and n:
            stream[n] = replace(cfg, cells=stream[n - 1].cells, spans=stream[n - 1].spans)
        elif kind == "state":
            stream[n] = replace(cfg, state=rng.choice(m.states))
        elif kind == "head":
            heads = list(cfg.heads)
            heads[i] += rng.choice((-1, 1))
            stream[n] = replace(cfg, heads=tuple(heads))
        elif kind in ("cell", "span"):
            lo, hi = cfg.spans[i]
            field = kind + "s"
            if kind == "cell":
                tape = dict(cfg.cells[i])
                tape[rng.randint(lo - 2, hi + 2)] = rng.choice(m.work_alphabet)
                new = cfg.cells[:i] + (tape,) + cfg.cells[i + 1 :]
            else:
                lo, hi = lo + rng.randint(-2, 2), hi + rng.randint(-2, 2)
                new = cfg.spans[:i] + ((min(lo, hi), max(lo, hi)),) + cfg.spans[i + 1 :]
            old = getattr(cfg, field)
            targets = range(len(stream)) if rng.random() < 0.5 else [n]
            for j in targets:
                if getattr(stream[j], field) is old:
                    stream[j] = replace(stream[j], **{field: new})
    return stream


def _check_expected_report(sink, cursor, initial):
    """The sink's expected report is the oracle inside the last span and
    the initial tape outside it; it counts as stale the cells outside
    where the two differ, and holds a second dict only while there are any,
    so its reports are the oracle tapes themselves exactly when no tape
    has a stale cell."""
    for i, (lo, hi) in enumerate(sink.spans):
        oracle, init = cursor.cells[i], initial[i]
        inside = {c: s for c, s in oracle.items() if lo <= c <= hi}
        outside = {c: s for c, s in init.items() if not lo <= c <= hi}
        stale = {
            c for c in oracle.keys() | init.keys() if not lo <= c <= hi and oracle.get(c) != init.get(c)
        }
        assert sink.stale[i] == len(stale)
        assert (sink.reports[i] is sink.oracle[i]) == (not stale)
        assert sink.reports[i] == inside | outside
    assert (sink.reports is sink.oracle) == (not any(sink.stale))


def _checked_verdicts(machine, word, rec, stream, correct):
    """VerifySink's verdicts on stream, as _feed gives them, after
    checking that they equal ReferenceVerifier's and that after each
    accepted emission the expected report is right; a correct stream's
    emissions must each equal their expected report."""
    sink, cursor = VerifySink(machine, word), hs.HistoryCursor(rec.history)
    initial = rec.history[0].cells
    verdicts = []
    for cfg in stream:
        try:
            sink(cfg)
        except hs.InternalInvariantError as exc:
            verdicts.append(str(exc))
            break
        verdicts.append((sink.compared, sink.strict))
        cursor.advance()
        _check_expected_report(sink, cursor, initial)
        if correct:
            assert sink.matched is cfg.cells
    assert verdicts == _feed(ReferenceVerifier(rec.history), stream), machine.name
    return verdicts


def test_verify_sink_matches_reference_verifier():
    """VerifySink against ReferenceVerifier, the history-walking sink it
    replaced, on 1000 random and wide-alphabet machines at tight
    windows, halts and all three violations included, each stream fed
    clean and with random faults: both give the same verdict at every
    emission.  After each accepted emission the sink's expected report
    is what a correct engine reports, and a clean emission always
    equals it, so no correct run reaches the in-span cell walk."""
    rng = random.Random(1717)
    outcomes = {}
    windowed = halted = raised = lowered = 0
    for run_no in range(1000):
        m = wide_alphabet_machine(rng) if run_no % 5 == 0 else random_machine(rng)
        n = rng.randint(0, 8) if m.input_alphabet else 0
        word = [rng.choice(m.input_alphabet) for _ in range(n)]
        budget = rng.randint(1, 60)
        rec = hs.run(m, word, max_steps=budget)
        t = rec.t if rec.t and rng.random() < 0.5 else budget
        b, c_int = rng.randint(1, 4), rng.randint(1, 2)
        emitted = []
        ledger = hs.attach_ledger(m, t, b, c_int=c_int)
        try:
            hs.holo_run(m, word, t, b=b, c_int=c_int, sink=emitted.append, ledger=ledger)
            exc = None
        except hs.ModelViolation as caught:
            exc = type(caught)
        outcomes[exc] = outcomes.get(exc, 0) + 1
        windowed += ledger.dirty_evictions > 0
        halted += exc is None and rec.halt_reason != "budget"
        if not emitted:
            continue
        clean = _checked_verdicts(m, word, rec, emitted, correct=True)
        faulty = _checked_verdicts(m, word, rec, _inject_faults(rng, emitted), correct=False)
        raised += isinstance(faulty[-1], str)
        lowered += not isinstance(faulty[-1], str) and faulty[-1][1] < clean[-1][1]
    assert set(outcomes) == {
        None,
        hs.NonBlockRespecting,
        hs.StaleWindowReentry,
        hs.RunEndedEarly,
    }, outcomes
    assert windowed > 100 and halted > 50 and raised > 200 and lowered > 50, (
        windowed, halted, raised, lowered,
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
