"""Window-restricted replay from full-policy summaries."""

from __future__ import annotations

import random

import pytest

import holosim as hs
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


def test_replay_block_emits_in_order(counter_run):
    s = hs.interval_summary(counter_run, 9, 24)
    seen = []
    result = hs.replay_block(
        counter_run.machine,
        s.q_in,
        s.heads_in,
        s.entry,
        steps=s.steps,
        emit=seen.append,
        time_base=8,
    )
    assert [c.time for c in seen] == list(range(9, 25))
    assert result.config == seen[-1]
    assert result.config.state == s.q_out
    assert tuple(result.windows) == s.exit


def test_replay_block_zero_steps(counter_run):
    s = hs.interval_summary(counter_run, 9, 24)
    seen = []
    result = hs.replay_block(
        counter_run.machine, s.q_in, s.heads_in, s.entry, steps=0, emit=seen.append
    )
    assert seen == []
    assert result.windows == s.entry
    assert result.config.state == s.q_in


def test_window_escape_on_undersized_window(counter_run):
    s = hs.interval_summary(counter_run, 1, 64)
    w = s.entry[0]
    clipped = (hs.TapeWindow(w.lo + 1, w.hi, w.symbols[1:]),)
    with pytest.raises((hs.WindowEscape,)):
        hs.replay_block(
            counter_run.machine, s.q_in, (w.lo + 1,), clipped, steps=64
        )


def test_window_escape_when_head_starts_outside(counter_run):
    s = hs.interval_summary(counter_run, 1, 16)
    with pytest.raises(hs.WindowEscape):
        hs.replay_block(
            counter_run.machine, s.q_in, (s.entry[0].hi + 5,), s.entry, steps=1
        )


def test_step_from_halt_surfaces(machines):
    m = machines["writer2"]
    rec = hs.run(m, "", max_steps=10)
    s = hs.interval_summary(rec, 1, 2)
    # asking for more steps than the interval has steps from a halt
    with pytest.raises(hs.StepFromHaltError):
        hs.replay_block(m, s.q_in, s.heads_in, s.entry, steps=3)


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
        result = hs.replay_block(m, s.q_in, s.heads_in, s.entry, steps=s.steps)
        assert result.config.state == s.q_out
        assert result.config.heads == s.heads_out
        assert result.windows == s.exit
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
