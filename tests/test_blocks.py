"""Block decomposition, interval summaries, and the merge algebra."""

from __future__ import annotations

import dataclasses
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import holosim as hs
from support import fold_left_deep, random_machine, reference_block_spans


@given(t=st.integers(0, 5000), b=st.integers(1, 200))
def test_decompose_partitions(t, b):
    d = hs.decompose(t, b)
    covered = []
    for L, R in d.blocks:
        assert 1 <= L <= R <= t
        assert R - L + 1 <= b
        covered.extend(range(L, R + 1))
    assert covered == list(range(1, t + 1))
    assert d.T == -(-t // b) if t else d.T == 0


@given(t=st.integers(1, 5000), b=st.integers(1, 200))
def test_decompose_block_arithmetic(t, b):
    d = hs.decompose(t, b)
    for k in range(1, d.T + 1):
        L, R = d.block(k)
        assert L == (k - 1) * b + 1
        assert R == min(k * b, t)


def test_decompose_rejects_bad_args():
    with pytest.raises(ValueError):
        hs.decompose(10, 0)
    with pytest.raises(ValueError):
        hs.decompose(-1, 3)


@pytest.mark.parametrize("t, b", [(0, 4), (3, 8), (8, 8), (10, 3), (4096, 32)])
def test_block_rejects_indices_outside_one_to_T(t, b):
    """Past T the arithmetic would give an interval with R < L, so the
    range check is what keeps block(k) to the T blocks there are."""
    d = hs.decompose(t, b)
    for k in (0, d.T + 1):
        with pytest.raises(IndexError):
            d.block(k)


def test_summaries_reject_c_int_below_one(counter_run):
    with pytest.raises(ValueError, match="c_int"):
        hs.leaf_summary(counter_run, (1, 16), 0, 16)
    with pytest.raises(ValueError, match="c_int"):
        hs.check_block_respecting(counter_run, 16, 0)


def test_window_validation():
    with pytest.raises(ValueError):
        hs.TapeWindow(0, 1, ("a",))
    with pytest.raises(ValueError):
        hs.TapeWindow(5, 3, ())
    with pytest.raises(ValueError, match=r"empty window must be canonical \(0, -1\)"):
        hs.TapeWindow(5, 4, ())
    w = hs.TapeWindow(2, 4, ("a", "b", "c"))
    assert w.symbol_at(3) == "b"
    assert len(w) == 3
    with pytest.raises(IndexError):
        w.symbol_at(5)


def test_full_policy_requires_shared_span(machines):
    m = machines["writer2"]
    with pytest.raises(ValueError, match="span"):
        hs.IntervalSummary(
            machine=m,
            L=1,
            R=2,
            q_in="q0",
            q_out="acc",
            heads_in=(0,),
            heads_out=(1,),
            entry=(hs.TapeWindow(0, 1, ("_", "_")),),
            exit=(hs.TapeWindow(0, 2, ("1", "1", "_")),),
            policy=hs.POLICY_FULL,
        )


def test_summary_rejects_unknown_policy(machines):
    with pytest.raises(ValueError, match="unknown policy 'nope'"):
        hs.IntervalSummary(machine=machines["writer2"], policy="nope")


def test_writer2_whole_interval_summary(machines):
    m = machines["writer2"]
    rec = hs.run(m, "", max_steps=10)
    s = hs.interval_summary(rec, 1, 2)
    assert (s.q_in, s.q_out) == ("q0", "acc")
    assert s.heads_in == (0,) and s.heads_out == (1,)
    assert s.entry[0].span == (0, 1) == s.exit[0].span
    assert s.entry[0].symbols == ("_", "_")
    assert s.exit[0].symbols == ("1", "1")
    assert hs.screen_area(s) == 2


def test_leaf_summary_matches_interval_summary(counter_run):
    d = hs.decompose(counter_run.t, 16)
    for k in (1, 2, d.T):
        L, R = d.block(k)
        leaf = hs.leaf_summary(counter_run, d.block(k), 4, 16)
        assert leaf == hs.interval_summary(counter_run, L, R)


def test_leaf_summary_enforces_window_limit(counter_run):
    # a 1-step block whose head moves spans 2 cells; limit c_int*b = 1
    d = hs.decompose(counter_run.t, 1)
    with pytest.raises(hs.NonBlockRespecting) as exc:
        hs.leaf_summary(counter_run, d.block(1), 1, 1)
    assert exc.value.block == 1
    assert exc.value.limit == 1


def test_leaf_summary_limits_a_short_final_block_by_b(machines):
    """The final block of sweep at t = 10, b = 4 is (9, 10): its window
    of 3 cells fits the limit c_int * b = 4, not 1 * 2 from its own
    length."""
    rec = hs.run(machines["sweep"], "", max_steps=10)
    d = hs.decompose(10, 4)
    assert d.block(d.T) == (9, 10)
    leaf = hs.leaf_summary(rec, d.block(d.T), 1, 4)
    assert leaf.entry[0].span == (8, 10)
    assert leaf == hs.interval_summary(rec, 9, 10)


def test_summaries_reject_intervals_outside_the_run(counter_run):
    t = counter_run.t
    d = hs.decompose(t, 16)
    for L, R in ((0, 4), (5, 4), (1, t + 1)):
        with pytest.raises(ValueError, match=rf"step interval \[{L},{R}\] outside \[1,{t}\]"):
            hs.interval_summary(counter_run, L, R)
        with pytest.raises(ValueError, match=rf"block \[{L},{R}\] outside \[1,{t}\]"):
            hs.leaf_summary(counter_run, (L, R), 4, 16)
    for k_lo, k_hi in ((0, 1), (3, 2), (1, d.T + 1)):
        with pytest.raises(ValueError, match=rf"block range \[{k_lo},{k_hi}\] outside \[1,{d.T}\]"):
            hs.direct_summary(counter_run, d, k_lo, k_hi, 4)


def test_merge_requires_adjacency(counter_run):
    d = hs.decompose(counter_run.t, 16)
    s1 = hs.leaf_summary(counter_run, d.block(1), 4, 16)
    s3 = hs.leaf_summary(counter_run, d.block(3), 4, 16)
    with pytest.raises(hs.MergeIncompatible, match="adjacent"):
        hs.merge(s1, s3)
    with pytest.raises(hs.MergeIncompatible, match="adjacent"):
        hs.merge(s1, s1)


def test_merge_rejects_state_mismatch(counter_run):
    import dataclasses

    d = hs.decompose(counter_run.t, 16)
    s1 = hs.leaf_summary(counter_run, d.block(1), 4, 16)
    s2 = hs.leaf_summary(counter_run, d.block(2), 4, 16)
    broken = dataclasses.replace(s2, q_in="ret" if s2.q_in != "ret" else "inc")
    with pytest.raises(hs.MergeIncompatible, match="state"):
        hs.merge(s1, broken)
    broken = dataclasses.replace(s2, heads_in=tuple(h + 1 for h in s2.heads_in))
    with pytest.raises(hs.MergeIncompatible, match=r"exit heads \(.*\) do not match entry heads"):
        hs.merge(s1, broken)


def test_merge_rejects_foreign_operands(counter_run, machines):
    """Operands from another machine or under another policy do not
    join, and full-policy windows that leave a gap between them do not
    merge."""
    d = hs.decompose(counter_run.t, 16)
    s1 = hs.leaf_summary(counter_run, d.block(1), 4, 16)
    s2 = hs.leaf_summary(counter_run, d.block(2), 4, 16)
    with pytest.raises(hs.MergeIncompatible, match="summaries come from different machines"):
        hs.merge(s1, dataclasses.replace(s2, machine=machines["writer2"]))
    with pytest.raises(hs.MergeIncompatible, match="policy mismatch: full vs boundary"):
        hs.merge(s1, dataclasses.replace(s2, policy=hs.POLICY_BOUNDARY))
    far = tuple(hs.TapeWindow(w.lo + 100, w.hi + 100, w.symbols) for w in s2.entry)
    with pytest.raises(hs.MergeIncompatible, match=r"tape 1 windows \[.*\] touch nowhere"):
        hs.merge(s1, dataclasses.replace(s2, entry=far, exit=far))


def test_merge_rejects_overlap_disagreement(counter_run):
    import dataclasses

    d = hs.decompose(counter_run.t, 16)
    s1 = hs.leaf_summary(counter_run, d.block(1), 4, 16)
    s2 = hs.leaf_summary(counter_run, d.block(2), 4, 16)
    w = s2.entry[0]
    flipped = "0" if w.symbols[0] != "0" else "1"
    bad_entry = (hs.TapeWindow(w.lo, w.hi, (flipped,) + w.symbols[1:]),)
    broken = dataclasses.replace(s2, entry=bad_entry, exit=s2.exit)
    # keep spans legal under full policy
    if broken.entry[0].span == broken.exit[0].span:
        with pytest.raises(hs.MergeIncompatible, match="disagree"):
            hs.merge(s1, broken)


def _run_random_machine(rng):
    """A random machine plus a run of it long enough to slice."""
    while True:
        m = random_machine(rng)
        word = (
            "".join(rng.choice(m.input_alphabet) for _ in range(rng.randint(0, 8)))
            if m.input_alphabet
            else ""
        )
        rec = hs.run(m, word, max_steps=rng.choice([40, 64, 100]))
        if rec.t >= 8:
            return rec


def test_merge_equals_direct_summary_random_runs():
    """sigma([L,M]) + sigma([M+1,R]) must equal sigma([L,R]) computed
    straight from the oracle, across random machines and cut points."""
    rng = random.Random(424242)
    for _ in range(30):
        rec = _run_random_machine(rng)
        L = rng.randint(1, rec.t - 2)
        R = rng.randint(L + 1, rec.t)
        M = rng.randint(L, R - 1)
        left = hs.interval_summary(rec, L, M)
        right = hs.interval_summary(rec, M + 1, R)
        assert hs.merge(left, right) == hs.interval_summary(rec, L, R)


def test_merge_associative_random_runs():
    rng = random.Random(31337)
    for _ in range(25):
        rec = _run_random_machine(rng)
        cuts = sorted(rng.sample(range(1, rec.t), 3))
        a, b_, c, d_ = (
            hs.interval_summary(rec, 1, cuts[0]),
            hs.interval_summary(rec, cuts[0] + 1, cuts[1]),
            hs.interval_summary(rec, cuts[1] + 1, cuts[2]),
            hs.interval_summary(rec, cuts[2] + 1, rec.t),
        )
        left_deep = hs.merge(hs.merge(hs.merge(a, b_), c), d_)
        right_deep = hs.merge(a, hs.merge(b_, hs.merge(c, d_)))
        balanced = hs.merge(hs.merge(a, b_), hs.merge(c, d_))
        assert left_deep == right_deep == balanced


def test_merge_fills_right_only_cells_without_initial_tape():
    """A merge away from time 1 can involve cells only the right
    operand visited.  Those cells were untouched during the left
    interval, so the right entry window already holds their content at
    the merged entry time; no initial-tape accessor is needed, and one
    would even be wrong for cells rewritten before the left interval."""
    m = hs.load_sample("sweep")
    rec = hs.run(m, "", max_steps=64)
    left = hs.interval_summary(rec, 17, 32)
    right = hs.interval_summary(rec, 33, 48)
    right_only = set(range(right.entry[0].span[0], right.entry[0].span[1] + 1)) - set(
        range(left.entry[0].span[0], left.entry[0].span[1] + 1)
    )
    assert right_only, "cut points no longer produce right-only cells"
    merged = hs.merge(left, right)
    assert merged == hs.interval_summary(rec, 17, 48)


def test_merge_area_subadditive_random_runs():
    rng = random.Random(77)
    for _ in range(25):
        rec = _run_random_machine(rng)
        L = rng.randint(1, rec.t - 2)
        R = rng.randint(L + 1, rec.t)
        M = rng.randint(L, R - 1)
        left = hs.interval_summary(rec, L, M)
        right = hs.interval_summary(rec, M + 1, R)
        merged = hs.merge(left, right)
        assert hs.screen_area(merged) <= hs.screen_area(left) + hs.screen_area(right)


def test_merge_boundary_policy_keeps_outer_sides(counter_run):
    d = hs.decompose(counter_run.t, 16)
    summaries = [
        hs.direct_summary(counter_run, d, k, k, 4, hs.POLICY_BOUNDARY)
        for k in range(1, 5)
    ]
    merged = fold_left_deep(summaries)
    assert merged.policy == hs.POLICY_BOUNDARY
    assert merged.entry == summaries[0].entry
    assert merged.exit == summaries[-1].exit


def test_fold_left_deep_equals_whole(counter_run):
    d = hs.decompose(counter_run.t, 16)
    leaves = [hs.leaf_summary(counter_run, d.block(k), 4, 16) for k in range(1, d.T + 1)]
    assert fold_left_deep(leaves) == hs.interval_summary(counter_run, 1, counter_run.t)
    with pytest.raises(ValueError, match="cannot fold an empty summary sequence"):
        fold_left_deep([])


def test_check_block_respecting_against_reference(machines):
    cases = [
        ("counter", hs.counter_input(6), 300),
        ("sweep", "", 200),
        ("palin", "010010", 400),
        ("writer2", "", 2),
    ]
    for name, word, budget in cases:
        m = machines[name]
        rec = hs.run(m, word, max_steps=budget)
        for b in (1, 3, 7, 16):
            report = hs.check_block_respecting(rec, b, 2)
            ref = reference_block_spans(m, word, rec.t, b)
            assert len(report.entries) == len(ref)
            for entry, (interval, spans) in zip(report.entries, ref):
                assert entry.interval == interval
                assert entry.spans == spans
                assert entry.ok == all(
                    hi - lo + 1 <= 2 * b for lo, hi in spans
                )


def test_single_block_case(machines):
    m = machines["counter"]
    word = hs.counter_input(4)
    rec = hs.run(m, word, max_steps=10**4)
    report = hs.check_block_respecting(rec, rec.t, 1)
    visited = reference_block_spans(m, word, rec.t, rec.t)[0][1]
    expect = all(hi - lo + 1 <= rec.t for lo, hi in visited)
    assert report.ok == expect
    assert len(report.entries) == 1


@settings(max_examples=60)
@given(data=st.data())
def test_direct_summary_consistency(data):
    """direct_summary over a sub-range equals folding that range's
    leaves, full policy."""
    rng = random.Random(data.draw(st.integers(0, 10**6)))
    rec = _run_random_machine(rng)
    b = rng.randint(1, max(1, rec.t // 2))
    d = hs.decompose(rec.t, b)
    k_lo = rng.randint(1, d.T)
    k_hi = rng.randint(k_lo, d.T)
    c_int = rec.t + 2  # generous, random machines are not block-respecting
    got = hs.direct_summary(rec, d, k_lo, k_hi, c_int, hs.POLICY_FULL)
    leaves = [hs.leaf_summary(rec, d.block(k), c_int, b) for k in range(k_lo, k_hi + 1)]
    assert got == fold_left_deep(leaves)


# ---------------------------------------------------------------------------
# differential: merge against a cell-by-cell reference


def _ref_merge(left, right):
    """The full-policy merge written cell by cell: overlap check, then
    left entry over right entry and right exit over left exit."""
    for i, (xw, ew) in enumerate(zip(left.exit, right.entry)):
        for c in range(max(xw.lo, ew.lo), min(xw.hi, ew.hi) + 1):
            if xw.symbol_at(c) != ew.symbol_at(c):
                raise hs.MergeIncompatible(f"window contents disagree at tape {i + 1} cell {c}")
    entry, exit_ = [], []
    for lw, rw, lx, rx in zip(left.entry, right.entry, left.exit, right.exit):
        if len(lw) == 0 and len(rw) == 0:
            entry.append(hs.TapeWindow(0, -1, ()))
            exit_.append(hs.TapeWindow(0, -1, ()))
            continue
        lo = min(w.lo for w in (lw, rw) if len(w) > 0)
        hi = max(w.hi for w in (lw, rw) if len(w) > 0)
        cells = range(lo, hi + 1)
        entry.append(hs.TapeWindow(lo, hi, tuple(
            lw.symbol_at(c) if lw.covers(c) else rw.symbol_at(c) for c in cells)))
        exit_.append(hs.TapeWindow(lo, hi, tuple(
            rx.symbol_at(c) if rx.covers(c) else lx.symbol_at(c) for c in cells)))
    return dataclasses.replace(
        left, R=right.R, q_out=right.q_out, heads_out=right.heads_out,
        entry=tuple(entry), exit=tuple(exit_),
    )


def _random_span_pair(rng):
    """Spans of the left and right operand on one tape: overlapping,
    touching on either side, one inside the other, or with one or both
    empty."""
    kind = rng.choice(("overlap", "touch-left", "touch-right", "nested", "covering",
                       "left-empty", "right-empty", "both-empty"))
    lo = rng.randint(-20, 20)
    hi = lo + rng.randint(0, 6)
    if kind == "both-empty":
        return (0, -1), (0, -1)
    if kind == "left-empty":
        return (0, -1), (lo, hi)
    if kind == "right-empty":
        return (lo, hi), (0, -1)
    if kind == "touch-left":  # right operand ends where left begins
        return (lo, hi), (lo - rng.randint(1, 5), lo - 1)
    if kind == "touch-right":
        return (lo, hi), (hi + 1, hi + rng.randint(1, 5))
    if kind == "nested":
        a = rng.randint(lo, hi)
        return (lo, hi), (a, rng.randint(a, hi))
    if kind == "covering":
        return (lo, hi), (lo - rng.randint(0, 4), hi + rng.randint(0, 4))
    a = rng.randint(lo, hi)
    return (lo, hi), (a, a + rng.randint(0, 8))


def _random_adjacent_pair(rng, m):
    """Two adjacent full-policy summaries whose exit and entry windows
    at the shared time agree wherever they overlap."""
    def window(span, contents):
        lo, hi = span
        return hs.TapeWindow(lo, hi, tuple(contents[c] for c in range(lo, hi + 1)))

    def fresh():
        return {c: rng.choice(m.work_alphabet) for c in range(-40, 40)}

    spans = [_random_span_pair(rng) for _ in range(m.k)]
    shared = [fresh() for _ in range(m.k)]  # tape contents at time left.R
    L, M = rng.randint(1, 50), rng.randint(0, 30)
    heads = tuple(rng.randint(-20, 20) for _ in range(m.k))
    q = rng.choice(m.states)
    left = hs.IntervalSummary(
        machine=m, L=L, R=L + M, q_in=rng.choice(m.states), q_out=q,
        heads_in=tuple(rng.randint(-20, 20) for _ in range(m.k)), heads_out=heads,
        entry=tuple(window(ls, fresh()) for ls, _ in spans),
        exit=tuple(window(ls, shared[i]) for i, (ls, _) in enumerate(spans)),
    )
    right = hs.IntervalSummary(
        machine=m, L=L + M + 1, R=L + M + 1 + rng.randint(0, 30),
        q_in=q, q_out=rng.choice(m.states),
        heads_in=heads, heads_out=tuple(rng.randint(-20, 20) for _ in range(m.k)),
        entry=tuple(window(rs, shared[i]) for i, (_, rs) in enumerate(spans)),
        exit=tuple(window(rs, fresh()) for _, rs in spans),
    )
    return left, right


def test_merge_matches_cell_by_cell_reference():
    rng = random.Random(2718)
    pool = [random_machine(rng) for _ in range(12)]
    for _ in range(600):
        m = rng.choice(pool)
        left, right = _random_adjacent_pair(rng, m)
        assert hs.merge(left, right) == _ref_merge(left, right)


def test_merge_mismatch_names_first_differing_cell():
    rng = random.Random(1414)
    pool = [random_machine(rng) for _ in range(12)]
    checked = 0
    while checked < 200:
        m = rng.choice(pool)
        left, right = _random_adjacent_pair(rng, m)
        i = rng.randrange(m.k)
        xw, ew = left.exit[i], right.entry[i]
        overlap = range(max(xw.lo, ew.lo), min(xw.hi, ew.hi) + 1)
        if not overlap:
            continue
        # change one or more cells of the right entry inside the overlap
        syms = list(ew.symbols)
        for c in rng.sample(list(overlap), rng.randint(1, len(overlap))):
            others = [s for s in m.work_alphabet if s != syms[c - ew.lo]]
            syms[c - ew.lo] = rng.choice(others)
        entry = list(right.entry)
        entry[i] = hs.TapeWindow(ew.lo, ew.hi, tuple(syms))
        broken = dataclasses.replace(right, entry=tuple(entry))
        with pytest.raises(hs.MergeIncompatible) as want:
            _ref_merge(left, broken)
        with pytest.raises(hs.MergeIncompatible) as got:
            hs.merge(left, broken)
        assert str(got.value) == str(want.value)
        checked += 1
