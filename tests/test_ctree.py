"""Causal tree structure, traversal, duality, and audit labeling."""

from __future__ import annotations

import dataclasses
import math
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

import holosim as hs
from holosim.blocks import leaf_summaries
from holosim.streaming import VerifySink
from support import (
    ENTER,
    EXIT,
    LEAF_EMIT,
    dfs_order,
    fold_left_deep,
    leaf_to_time,
    tree_depth_for,
)


def test_split_left_count():
    assert [hs.split_left_count(n) for n in range(1, 8)] == [1, 1, 2, 2, 3, 3, 4]


def test_single_leaf_tree():
    tree = hs.build_tree(hs.decompose(5, 7))
    assert tree.T == 1
    assert tree.depth == 0
    assert len(tree.nodes) == 1
    assert tree.root.interval == (1, 5)


def test_tree_shape_t10_b3():
    tree = hs.build_tree(hs.decompose(10, 3))
    assert tree.T == 4
    assert tree.depth == 2
    assert len(tree.nodes) == 7
    assert tree.root.interval == (1, 10)
    # pre-order ids
    assert [n.id for n in tree.nodes] == list(range(7))
    left = tree.node(tree.root.left)
    right = tree.node(tree.root.right)
    assert left.interval == (1, 6)
    assert right.interval == (7, 10)
    # the short final block [10,10] sits in the rightmost leaf
    leaves = [n.interval for n in tree.leaves()]
    assert leaves == [(1, 3), (4, 6), (7, 9), (10, 10)]


def test_empty_decomposition_rejected():
    with pytest.raises(ValueError):
        hs.build_tree(hs.decompose(0, 4))


@given(T=st.integers(1, 3000))
def test_depth_formula(T):
    assert tree_depth_for(T) == (0 if T == 1 else math.ceil(math.log2(T)))


@given(t=st.integers(1, 400), b=st.integers(1, 40))
def test_built_tree_depth_matches_recurrence(t, b):
    d = hs.decompose(t, b)
    tree = hs.build_tree(d)
    assert tree.depth == tree_depth_for(d.T)


def test_dfs_order_writer2(machines):
    tree = hs.build_tree(hs.decompose(2, 1))
    steps = dfs_order(tree)
    phases = [(s.phase, s.node) for s in steps]
    assert phases == [
        (ENTER, 0),
        (ENTER, 1),
        (LEAF_EMIT, 1),
        (EXIT, 1),
        (ENTER, 2),
        (LEAF_EMIT, 2),
        (EXIT, 2),
        (EXIT, 0),
    ]


@given(t=st.integers(1, 300), b=st.integers(1, 30))
def test_dfs_order_properties(t, b):
    tree = hs.build_tree(hs.decompose(t, b))
    steps = dfs_order(tree)
    emits = [s for s in steps if s.phase == LEAF_EMIT]
    # one emission per simulated step, in time order
    times = [leaf_to_time(s.leaf, s.offset, b, t) for s in emits]
    assert times == list(range(1, t + 1))
    # enter/exit nest properly; max open nodes = depth + 1
    open_now = 0
    max_open = 0
    seen_enter = set()
    for s in steps:
        if s.phase == ENTER:
            open_now += 1
            seen_enter.add(s.node)
            max_open = max(max_open, open_now)
        elif s.phase == EXIT:
            open_now -= 1
    assert open_now == 0
    assert seen_enter == set(range(len(tree.nodes)))
    assert max_open == tree.depth + 1


@given(t=st.integers(1, 2000), b=st.integers(1, 100))
def test_duality_bijection(t, b):
    seen = set()
    for tau in range(1, t + 1):
        k, delta = hs.time_to_leaf(tau, b, t)
        assert leaf_to_time(k, delta, b, t) == tau
        seen.add((k, delta))
    assert len(seen) == t
    # every (leaf, offset) pair of the decomposition is hit
    d = hs.decompose(t, b)
    expected = {
        (k, off)
        for k in range(1, d.T + 1)
        for off in range(d.block(k)[1] - d.block(k)[0] + 1)
    }
    assert seen == expected


def test_duality_rejects_out_of_range():
    with pytest.raises(ValueError):
        hs.time_to_leaf(0, 3, 10)
    with pytest.raises(ValueError):
        hs.time_to_leaf(11, 3, 10)
    with pytest.raises(ValueError):
        leaf_to_time(4, 1, 3, 10)  # block 4 is [10,10]; offset 1 past end
    with pytest.raises(ValueError):
        leaf_to_time(5, 0, 3, 10)


def test_tree_helpers_reject_bad_args(counter_run):
    with pytest.raises(ValueError):
        tree_depth_for(0)
    with pytest.raises(ValueError):
        hs.time_to_leaf(1, 0, 10)
    with pytest.raises(ValueError):
        leaf_to_time(1, 0, 0, 10)
    tree = hs.build_tree(hs.decompose(counter_run.t - 1, 32))
    with pytest.raises(ValueError, match="tree is over"):
        hs.label_tree(tree, counter_run, 4)


def test_label_tree_coherence(counter_run):
    tree = hs.build_tree(hs.decompose(counter_run.t, 32))
    labeled = hs.label_tree(tree, counter_run, 4)
    for node in labeled.nodes:
        s = labeled.labels[node.id]
        assert (s.L, s.R) == node.interval
        if not node.is_leaf:
            assert s == hs.merge(
                labeled.labels[node.left], labeled.labels[node.right]
            )
            assert s == hs.interval_summary(counter_run, s.L, s.R)
    assert labeled.labels[0] == hs.interval_summary(counter_run, 1, counter_run.t)


def test_label_tree_boundary_policy(counter_run):
    tree = hs.build_tree(hs.decompose(counter_run.t, 32))
    labeled = hs.label_tree(tree, counter_run, 4, hs.POLICY_BOUNDARY)
    root = labeled.labels[0]
    assert root.policy == hs.POLICY_BOUNDARY
    d = hs.decompose(counter_run.t, 32)
    first = hs.leaf_summary(counter_run, d.block(1), 4, 32)
    last = hs.leaf_summary(counter_run, d.block(d.T), 4, 32)
    assert root.entry == first.entry
    assert root.exit == last.exit


def test_tree_json_round_shape(counter_run):
    tree = hs.build_tree(hs.decompose(64, 8))
    data = hs.tree_to_json(tree)
    assert data["T"] == 8 and data["depth"] == 3
    assert len(data["nodes"]) == 15
    assert all("summary_hex" not in n for n in data["nodes"])
    labeled = hs.label_tree(tree, hs.run(counter_run.machine, hs.counter_input(10), 64), 4)
    data = hs.tree_to_json(labeled)
    blob = bytes.fromhex(data["nodes"][0]["summary_hex"])
    assert hs.decode_summary_exact(blob, counter_run.machine) == labeled.labels[0]


def test_random_fold_against_label_root():
    """Balanced audit labeling and arbitrary association orders agree,
    randomized over machines."""
    from support import random_machine

    rng = random.Random(615)
    done = 0
    while done < 12:
        m = random_machine(rng)
        word = (
            "".join(rng.choice(m.input_alphabet) for _ in range(4))
            if m.input_alphabet
            else ""
        )
        rec = hs.run(m, word, max_steps=48)
        if rec.t < 6:
            continue
        b = rng.randint(1, rec.t // 3)
        tree = hs.build_tree(hs.decompose(rec.t, b))
        c_int = rec.t + 2
        labeled = hs.label_tree(tree, rec, c_int)
        d = hs.decompose(rec.t, b)
        leaves = [hs.leaf_summary(rec, d.block(k), c_int, b) for k in range(1, d.T + 1)]
        assert labeled.labels[0] == fold_left_deep(leaves)
        done += 1


def _check_labels_against_oracle(rec, b, c_int):
    """Leaves must equal leaf_summary of their block and every internal
    node direct_summary of its leaf range, under both policies."""
    d = hs.decompose(rec.t, b)
    tree = hs.build_tree(d)
    for policy in (hs.POLICY_FULL, hs.POLICY_BOUNDARY):
        labeled = hs.label_tree(tree, rec, c_int, policy)
        for node in labeled.nodes:
            got = labeled.labels[node.id]
            if node.is_leaf:
                leaf = hs.leaf_summary(rec, d.block(node.leaf_lo), c_int, b)
                want = dataclasses.replace(leaf, policy=policy)
            else:
                want = hs.direct_summary(rec, d, node.leaf_lo, node.leaf_hi, c_int, policy)
            assert got == want and got.policy == policy


def test_label_tree_matches_leaf_and_direct_summaries_bundled(machines):
    cases = [("writer2", "", 2, 1), ("counter", hs.counter_input(6), 400, 16),
             ("palin", "0110110", 300, 12), ("sweep", "", 300, 10)]
    for name, word, steps, b in cases:
        rec = hs.run(machines[name], word, max_steps=steps)
        for bb in (b, b + 3):
            _check_labels_against_oracle(rec, bb, 4)


def test_label_tree_matches_leaf_and_direct_summaries_random():
    from support import random_machine

    rng = random.Random(8128)
    done = 0
    while done < 25:
        m = random_machine(rng)
        word = "".join(rng.choice(m.input_alphabet) for _ in range(5)) if m.input_alphabet else ""
        rec = hs.run(m, word, max_steps=rng.choice([30, 60]))
        if rec.t < 4:
            continue
        _check_labels_against_oracle(rec, rng.randint(1, rec.t // 2), rec.t + 2)
        done += 1


def test_label_tree_non_block_respecting_matches_leaf_summary():
    """label_tree raises NonBlockRespecting with the block, tape, span
    and limit that leaf_summary reports for the first failing block."""
    from support import random_machine

    rng = random.Random(3141)
    raised = passed = 0
    while raised < 20 or passed < 20:
        m = random_machine(rng)
        rec = hs.run(m, "", max_steps=rng.choice([57, 60]))
        if rec.t < 8:
            continue
        b = rng.randint(2, 6)
        d = hs.decompose(rec.t, b)
        want = None
        for k in range(1, d.T + 1):
            try:
                hs.leaf_summary(rec, d.block(k), 1, b)
            except hs.NonBlockRespecting as exc:
                want = exc
                assert (exc.block, exc.limit) == (k, b)
                break
        if want is None:
            # the short final block is held to c_int * b, like the others
            hs.label_tree(hs.build_tree(d), rec, 1)
            passed += 1
            continue
        with pytest.raises(hs.NonBlockRespecting) as got:
            hs.label_tree(hs.build_tree(d), rec, 1)
        fields = ("block", "tape", "span", "limit")
        assert [getattr(got.value, f) for f in fields] == [getattr(want, f) for f in fields]
        raised += 1


def test_audit_walks_agree(machines):
    """The forward audit walks agree with the oracle: label_tree's root
    is interval_summary of the whole run, leaf_summaries yields one
    summary per block, and a VerifySink pass, which steps its own
    oracle, finds every emission exact."""
    m = machines["counter"]
    word = hs.counter_input(10)
    rec = hs.run(m, word, max_steps=512)
    decomp = hs.decompose(rec.t, 32)
    labeled = hs.label_tree(hs.build_tree(decomp), rec, 4)
    assert len(list(leaf_summaries(rec, decomp, 4))) == decomp.T
    sink = VerifySink(m, word)
    hs.holo_run(m, word, rec.t, sink=sink)
    assert sink.compared == sink.strict == rec.t
    assert labeled.labels[0] == hs.interval_summary(rec, 1, rec.t)
