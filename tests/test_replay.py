"""Window-restricted replay from full-policy summaries."""

from __future__ import annotations

import random
from dataclasses import replace

import pytest

import holosim as hs
from holosim.blocks import tape_window
from support import oracle_walk, random_machine


def test_replay_zero_steps_is_entry(counter_run):
    s = hs.interval_summary(counter_run, 33, 48)
    cfg = hs.replay_from_summary(counter_run.machine, s, 32)
    oracle = counter_run.history[32].restricted([w.span for w in s.entry])
    assert cfg == oracle


def test_replay_every_offset_matches_oracle(counter_run):
    s = hs.interval_summary(counter_run, 97, 128)
    spans = [w.span for w in s.entry]
    taus = range(96, 129)
    for tau, oracle in zip(taus, oracle_walk(counter_run.history, taus)):
        cfg = hs.replay_from_summary(counter_run.machine, s, tau)
        assert cfg == oracle.restricted(spans)


def test_replay_exit_matches_summary_exit(counter_run):
    s = hs.interval_summary(counter_run, 49, 64)
    cfg = hs.replay_from_summary(counter_run.machine, s, 64)
    assert cfg.state == s.q_out
    assert cfg.heads == s.heads_out
    for i, w in enumerate(s.exit):
        for c in range(w.lo, w.hi + 1):
            assert cfg.symbol_at(i, c) == w.symbol_at(c)


def test_replay_rejects_out_of_interval(counter_run):
    s = hs.interval_summary(counter_run, 33, 48)
    with pytest.raises(ValueError, match="outside"):
        hs.replay_from_summary(counter_run.machine, s, 31)
    with pytest.raises(ValueError, match="outside"):
        hs.replay_from_summary(counter_run.machine, s, 49)


def test_replay_rejects_boundary_policy(counter_run):
    d = hs.decompose(counter_run.t, 16)
    s = hs.direct_summary(counter_run, d, 1, 2, 4, hs.POLICY_BOUNDARY)
    with pytest.raises(ValueError, match="full"):
        hs.replay_from_summary(counter_run.machine, s, s.L)


def test_replay_all_spans_interval(counter_run):
    s = hs.interval_summary(counter_run, 17, 32)
    configs = hs.replay_all(counter_run.machine, s)
    assert len(configs) == 17
    assert [c.time for c in configs] == list(range(16, 33))
    spans = [w.span for w in s.entry]
    for cfg, oracle in zip(configs, oracle_walk(counter_run.history, range(16, 33))):
        assert cfg == oracle.restricted(spans)


def _exit_windows(cfg):
    """The windows of a replayed configuration, over its spans."""
    return tuple(
        tape_window(cells, lo, hi, cfg.machine.blank) for cells, (lo, hi) in zip(cfg.cells, cfg.spans)
    )


def test_replay_all_emits_in_order(counter_run):
    s = hs.interval_summary(counter_run, 9, 24)
    configs = hs.replay_all(counter_run.machine, s)
    assert [c.time for c in configs] == list(range(8, 25))
    last = hs.replay_from_summary(counter_run.machine, s, 24)
    assert configs[-1] == last
    assert last.state == s.q_out
    assert _exit_windows(last) == s.exit


def test_replay_from_summary_zero_steps(counter_run):
    s = hs.interval_summary(counter_run, 9, 24)
    cfg = hs.replay_from_summary(counter_run.machine, s, 8)
    assert (cfg.time, cfg.state, cfg.heads) == (8, s.q_in, s.heads_in)
    assert _exit_windows(cfg) == s.entry


def test_window_escape_on_undersized_window(counter_run):
    s = hs.interval_summary(counter_run, 1, 64)
    w, x = s.entry[0], s.exit[0]
    clipped = replace(
        s,
        heads_in=(w.lo + 1,),
        entry=(hs.TapeWindow(w.lo + 1, w.hi, w.symbols[1:]),),
        exit=(hs.TapeWindow(x.lo + 1, x.hi, x.symbols[1:]),),
    )
    with pytest.raises(hs.WindowEscape):
        hs.replay_from_summary(counter_run.machine, clipped, 64)
    with pytest.raises(hs.WindowEscape):
        hs.replay_all(counter_run.machine, clipped)


def test_window_escape_when_head_starts_outside(counter_run):
    s = hs.interval_summary(counter_run, 1, 16)
    s = replace(s, heads_in=(s.entry[0].hi + 5,))
    with pytest.raises(hs.WindowEscape):
        hs.replay_from_summary(counter_run.machine, s, 1)
    with pytest.raises(hs.WindowEscape):
        hs.replay_all(counter_run.machine, s)


def test_step_from_halt_surfaces(machines):
    m = machines["writer2"]
    rec = hs.run(m, "", max_steps=10)
    # a summary of one step more than the run has steps from a halt
    s = replace(hs.interval_summary(rec, 1, 2), R=3)
    with pytest.raises(hs.StepFromHaltError):
        hs.replay_from_summary(m, s, 3)
    with pytest.raises(hs.StepFromHaltError):
        hs.replay_all(m, s)
    assert hs.replay_from_summary(m, s, 2).state == m.accept


def test_replay_checks_arity(counter_run):
    s = hs.interval_summary(counter_run, 1, 16)
    short = replace(s, entry=(), exit=())
    with pytest.raises(ValueError, match="expected 1 heads and windows, got 1 and 0"):
        hs.replay_from_summary(counter_run.machine, short, 0)


def test_boundary_determines_exit_random():
    """Exit data is a function of entry data alone: replaying the entry
    side of a summary reproduces exactly the recorded exit side."""
    rng = random.Random(1234)
    done = 0
    while done < 25:
        m = random_machine(rng)
        word = (
            "".join(rng.choice(m.input_alphabet) for _ in range(5))
            if m.input_alphabet
            else ""
        )
        rec = hs.run(m, word, max_steps=80)
        if rec.t < 4:
            continue
        L = rng.randint(1, rec.t - 1)
        R = rng.randint(L, rec.t)
        s = hs.interval_summary(rec, L, R)
        cfg = hs.replay_from_summary(m, s, R)
        assert cfg.state == s.q_out
        assert cfg.heads == s.heads_out
        assert _exit_windows(cfg) == s.exit
        done += 1


def test_two_tape_replay(machines):
    m = machines["palin"]
    rec = hs.run(m, "010010", max_steps=10**4)
    mid = rec.t // 2
    s = hs.interval_summary(rec, 1, mid)
    spans = [w.span for w in s.entry]
    taus = (0, 1, mid // 2, mid)
    for tau, oracle in zip(taus, oracle_walk(rec.history, taus)):
        cfg = hs.replay_from_summary(m, s, tau)
        assert cfg == oracle.restricted(spans)
