"""Static balanced tree over the block sequence of a run.

The leaf range [1, T] splits at ceil(T/2), recursively, giving depth
exactly ceil(log2 T).  Nodes carry pre-order integer ids starting at 0
for the root.  A depth-first traversal of the tree meets the leaves in
time order, which is the order the streaming simulator works in;
time_to_leaf maps a step time to its leaf and its offset inside it.

Audit labelling follows the same order: leaves come off one cursor
walking the oracle history forward, because DFS order is time order.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Iterator

from .blocks import (
    POLICY_BOUNDARY,
    POLICY_FULL,
    BlockDecomposition,
    IntervalSummary,
    decompose,
    leaf_summaries,
    merge,
)
from .codec import encode_summary
from .machine import RunRecord


def split_left_count(n: int) -> int:
    """Size of the left child's leaf range when splitting n leaves."""
    return (n + 1) // 2


@dataclass(slots=True)
class TreeNode:
    id: int
    leaf_lo: int
    leaf_hi: int
    interval: tuple[int, int]
    depth: int
    left: int | None
    right: int | None

    @property
    def is_leaf(self) -> bool:
        return self.left is None


@dataclass(frozen=True)
class CausalTree:
    t: int
    b: int
    T: int
    depth: int
    nodes: tuple[TreeNode, ...]
    labels: dict[int, IntervalSummary] | None = None

    @property
    def root(self) -> TreeNode:
        return self.nodes[0]

    def node(self, node_id: int) -> TreeNode:
        return self.nodes[node_id]

    def leaves(self) -> Iterator[TreeNode]:
        return (n for n in self.nodes if n.is_leaf)


def build_tree(decomp: BlockDecomposition) -> CausalTree:
    """Balanced tree over a non-empty decomposition, nodes in pre-order."""
    if decomp.T == 0:
        raise ValueError("cannot build a tree over zero blocks")
    nodes: list[TreeNode] = []

    def grow(lo: int, hi: int, depth: int) -> int:
        node_id = len(nodes)
        nodes.append(None)  # type: ignore[arg-type]  # patched below
        if lo == hi:
            nodes[node_id] = TreeNode(node_id, lo, hi, decomp.block(lo), depth, None, None)
            return node_id
        mid = lo + split_left_count(hi - lo + 1) - 1
        left = grow(lo, mid, depth + 1)
        right = grow(mid + 1, hi, depth + 1)
        interval = (nodes[left].interval[0], nodes[right].interval[1])
        nodes[node_id] = TreeNode(node_id, lo, hi, interval, depth, left, right)
        return node_id

    grow(1, decomp.T, 0)
    depth = max(n.depth for n in nodes if n.is_leaf)
    return CausalTree(t=decomp.t, b=decomp.b, T=decomp.T, depth=depth, nodes=tuple(nodes))


def time_to_leaf(tau: int, b: int, t: int) -> tuple[int, int]:
    """Map step time tau to its (leaf index, offset inside the leaf)."""
    if b < 1:
        raise ValueError(f"b must be >= 1, got {b}")
    if not 1 <= tau <= t:
        raise ValueError(f"tau {tau} outside [1, {t}]")
    k = -(-tau // b)
    delta = tau - ((k - 1) * b + 1)
    return k, delta


def label_tree(
    tree: CausalTree, run: RunRecord, c_int: int, policy: str = POLICY_FULL
) -> CausalTree:
    """Audit mode: compute every node's interval summary, leaves from
    one forward walk over the oracle history (DFS meets them in time
    order) and internal nodes by merging their children."""
    if run.t != tree.t:
        raise ValueError(f"tree is over t={tree.t} but run has t={run.t}")
    leaves = leaf_summaries(run, decompose(tree.t, tree.b), c_int)
    labels: dict[int, IntervalSummary] = {}

    def fill(node_id: int) -> IntervalSummary:
        node = tree.node(node_id)
        if node.is_leaf:
            s = next(leaves)
            if policy == POLICY_BOUNDARY:
                s = replace(s, policy=POLICY_BOUNDARY)
        else:
            s = merge(fill(node.left), fill(node.right))  # type: ignore[arg-type]
        labels[node_id] = s
        return s

    fill(0)
    return replace(tree, labels=labels)


def tree_to_json(tree: CausalTree) -> dict:
    """JSON-ready structure; audit labels ride along as hex-encoded
    summary bytes when present."""
    nodes = []
    for n in tree.nodes:
        entry: dict = {
            "id": n.id,
            "leaves": [n.leaf_lo, n.leaf_hi],
            "interval": [n.interval[0], n.interval[1]],
            "depth": n.depth,
            "children": None if n.is_leaf else [n.left, n.right],
        }
        if tree.labels is not None:
            entry["summary_hex"] = encode_summary(tree.labels[n.id]).hex()
        nodes.append(entry)
    return {"t": tree.t, "b": tree.b, "T": tree.T, "depth": tree.depth, "nodes": nodes}
