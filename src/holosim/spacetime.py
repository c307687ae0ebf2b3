"""Spacetime event DAG of a finished run.

One vertex per update event (tau, i): head i acting during the step
that takes C_tau to C_{tau+1}, for tau in [0, t-1].  Two edge kinds:

* control edges (tau, i) -> (tau+1, j) for every head pair, carrying
  the finite control's sequencing; these are fully determined by t and
  k, so they are stored as a count and generated on demand;
* data edges (tau, i) -> (tau', i) when event (tau', i) acts on a cell
  whose previous visit by head i was event (tau, i).  Every event
  writes its cell, so last-visit and last-write coincide.

The DAG's volume is its vertex count, k * t.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from .machine import RunRecord


@dataclass(frozen=True)
class SpacetimeDAG:
    t: int
    k: int
    data_edges: tuple[tuple[int, int, int], ...]  # (tau_from, tau_to, tape)

    @property
    def volume(self) -> int:
        return self.k * self.t

    @property
    def control_edge_count(self) -> int:
        return max(0, self.t - 1) * self.k * self.k

    def vertices(self) -> Iterator[tuple[int, int]]:
        for tau in range(self.t):
            for i in range(1, self.k + 1):
                yield (tau, i)

    def control_edges(self) -> Iterator[tuple[int, int, int, int]]:
        """(tau, i) -> (tau+1, j), generated in lexicographic order."""
        for tau in range(self.t - 1):
            for i in range(1, self.k + 1):
                for j in range(1, self.k + 1):
                    yield (tau, i, tau + 1, j)


def build_dag(run: RunRecord) -> SpacetimeDAG:
    """Scan the run once, linking each event to the previous visit of
    its cell on the same tape."""
    machine = run.machine
    k = machine.k
    heads = [0] * k
    last_visit: list[dict[int, int]] = [{} for _ in range(k)]
    edges: list[tuple[int, int, int]] = []
    history = run.history
    for tau in range(run.t):
        for i in range(k):
            c = heads[i]
            prev = last_visit[i].get(c)
            if prev is not None:
                edges.append((prev, tau, i + 1))
            last_visit[i][c] = tau
        moves = history.moves_at(tau + 1)
        for i in range(k):
            heads[i] += moves[i]
    return SpacetimeDAG(t=run.t, k=k, data_edges=tuple(edges))


def dag_to_json(dag: SpacetimeDAG) -> dict:
    return {
        "t": dag.t,
        "k": dag.k,
        "volume": dag.volume,
        "control_edge_count": dag.control_edge_count,
        "data_edges": [list(e) for e in dag.data_edges],
    }


def dag_to_dot(dag: SpacetimeDAG) -> str:
    """Graphviz text; events as t{tau}h{tape}, data edges dashed."""
    lines = ["digraph spacetime {", "  rankdir=LR;"]
    for tau, i in dag.vertices():
        lines.append(f'  t{tau}h{i} [label="({tau},{i})"];')
    for tau, i, tau2, j in dag.control_edges():
        lines.append(f"  t{tau}h{i} -> t{tau2}h{j};")
    for a, b, i in dag.data_edges:
        lines.append(f"  t{a}h{i} -> t{b}h{i} [style=dashed];")
    lines.append("}")
    return "\n".join(lines) + "\n"
