"""Spacetime DAG: hand-checked small cases, an independent scan, and
dot export."""

from __future__ import annotations

import random

import holosim as hs
from support import random_machine, reference_trace


def test_writer2_dag_hand_enumerated(machines):
    rec = hs.run(machines["writer2"], "", max_steps=10)
    dag = hs.build_dag(rec)
    assert dag.t == 2 and dag.k == 1
    assert dag.volume == 2
    assert list(dag.vertices()) == [(0, 1), (1, 1)]
    assert list(dag.control_edges()) == [(0, 1, 1, 1)]
    assert dag.control_edge_count == 1
    # event 1 acts on cell 1, never visited before: no data edges
    assert dag.data_edges == ()


def test_counter_dag_first_steps(machines):
    # inc@0 -> ret@-1 -> inc@0 -> inc@1 ... : event 2 revisits cell 0
    rec = hs.run(machines["counter"], hs.counter_input(3), max_steps=6)
    dag = hs.build_dag(rec)
    assert (0, 2, 1) in dag.data_edges


def _reference_data_edges(machine, word, t):
    """Last-visit scan over the reference trace, written independently
    of build_dag."""
    trace = list(reference_trace(machine, word, t))
    edges = set()
    for i in range(machine.k):
        last: dict[int, int] = {}
        for tau in range(t):
            cell = trace[tau][2][i]
            if cell in last:
                edges.add((last[cell], tau, i + 1))
            last[cell] = tau
    return edges


def test_dag_against_reference_scan(machines):
    cases = [
        ("counter", hs.counter_input(5), 200),
        ("sweep", "", 100),
        ("palin", "01010", 300),
    ]
    for name, word, budget in cases:
        rec = hs.run(machines[name], word, max_steps=budget)
        dag = hs.build_dag(rec)
        assert set(dag.data_edges) == _reference_data_edges(
            machines[name], word, rec.t
        )
        assert dag.volume == machines[name].k * rec.t


def test_dag_reference_scan_random():
    rng = random.Random(8080)
    for _ in range(20):
        m = random_machine(rng)
        word = (
            "".join(rng.choice(m.input_alphabet) for _ in range(3))
            if m.input_alphabet
            else ""
        )
        rec = hs.run(m, word, max_steps=60)
        if rec.t == 0:
            continue
        dag = hs.build_dag(rec)
        assert set(dag.data_edges) == _reference_data_edges(m, word, rec.t)
        assert dag.control_edge_count == (rec.t - 1) * m.k * m.k


def test_dot_output(machines):
    rec = hs.run(machines["writer2"], "", max_steps=10)
    dot = hs.dag_to_dot(hs.build_dag(rec))
    assert dot.startswith("digraph spacetime {")
    assert "t0h1 -> t1h1;" in dot
    assert "dashed" not in dot  # no data edges for writer2
    rec = hs.run(machines["counter"], hs.counter_input(3), max_steps=6)
    dot = hs.dag_to_dot(hs.build_dag(rec))
    assert "[style=dashed]" in dot
