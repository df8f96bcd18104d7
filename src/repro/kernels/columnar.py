"""Columnar (CSR-style) flattening of the AL-Tree.

The pointer-based :class:`~repro.altree.tree.ALTree` is ideal for the
scalar traversals — cheap inserts, soft removal, per-node dictionaries —
but terrible for bulk work: every step is a Python-level dict lookup.
This module flattens a built tree into per-level numpy arrays once per
batch, after which the frontier kernels (:mod:`repro.kernels.frontier`)
replace node-at-a-time recursion with whole-level array operations.

Layout (one entry per *level* ``l`` of the attribute ordering; nodes of
a level are stored breadth-first, so the children of any node occupy one
contiguous slice of the next level):

- ``keys[l]``                       — value id fixed by each node.
- ``desc[l]``                       — built-time descendant counts.
- ``parent[l]``                     — index of each node's parent in
  level ``l-1`` (all zeros at level 0: the virtual root).
- ``child_start[l]`` / ``child_end[l]`` — the contiguous child slice of
  each node in level ``l+1`` (absent for the leaf level).
- ``entry_ids`` / ``entry_leaf``    — flat record ids and, per entry,
  the index of its leaf in the last level; ``leaf_start``/``leaf_count``
  give each leaf's contiguous entry slice.

Flattening costs one BFS over the tree (``O(nodes + objects)``) — paid
once per batch, amortised over every traversal the batch serves.
"""

from __future__ import annotations

import numpy as np

from repro.altree.tree import ALTree
from repro.errors import AlgorithmError

__all__ = ["ColumnarALTree", "dissimilarity_matrices"]


def dissimilarity_matrices(dataset, name: str) -> list[np.ndarray]:
    """The dataset's per-attribute dissimilarity matrices as numpy arrays.

    Raises :class:`AlgorithmError` for schemas the array kernels cannot
    serve: non-matrix-backed (numeric) attributes — the NumericTRS
    territory — and matrices with non-zero self-dissimilarity (the same
    contract :meth:`ReverseSkylineAlgorithm._tables` enforces).
    """
    from repro.dissim.matrix import MatrixDissimilarity

    mats = []
    for i, d in enumerate(dataset.space.dissims):
        if not isinstance(d, MatrixDissimilarity):
            raise AlgorithmError(
                f"{name}: attribute {i} is not matrix-backed; "
                f"{name} requires categorical attributes"
            )
        matrix = np.asarray(d.matrix)
        if np.diagonal(matrix).any():
            raise AlgorithmError(
                f"{name}: attribute {i} has non-zero self-dissimilarity"
            )
        mats.append(matrix)
    return mats


class ColumnarALTree:
    """One AL-Tree batch, flattened to per-level arrays."""

    __slots__ = (
        "num_levels",
        "keys",
        "desc",
        "parent",
        "child_start",
        "child_end",
        "leaf_start",
        "leaf_count",
        "entry_ids",
        "entry_leaf",
        "num_objects",
    )

    def __init__(self) -> None:
        self.num_levels = 0
        self.keys: list[np.ndarray] = []
        self.desc: list[np.ndarray] = []
        self.parent: list[np.ndarray] = []
        self.child_start: list[np.ndarray] = []
        self.child_end: list[np.ndarray] = []
        self.leaf_start = np.zeros(0, dtype=np.intp)
        self.leaf_count = np.zeros(0, dtype=np.intp)
        self.entry_ids = np.zeros(0, dtype=np.intp)
        self.entry_leaf = np.zeros(0, dtype=np.intp)
        self.num_objects = 0

    @classmethod
    def from_arrays(
        cls,
        *,
        keys: list[np.ndarray],
        desc: list[np.ndarray],
        parent: list[np.ndarray],
        child_start: list[np.ndarray],
        child_end: list[np.ndarray],
        leaf_start: np.ndarray,
        leaf_count: np.ndarray,
        entry_ids: np.ndarray,
        entry_leaf: np.ndarray,
    ) -> "ColumnarALTree":
        """Reassemble a flattening from its raw arrays (zero-copy views
        are fine — the kernels never mutate them)."""
        col = cls()
        col.num_levels = len(keys)
        col.keys = list(keys)
        col.desc = list(desc)
        col.parent = list(parent)
        col.child_start = list(child_start)
        col.child_end = list(child_end)
        col.leaf_start = leaf_start
        col.leaf_count = leaf_count
        col.entry_ids = entry_ids
        col.entry_leaf = entry_leaf
        col.num_objects = int(entry_ids.size)
        return col

    @classmethod
    def from_tree(cls, tree: ALTree) -> "ColumnarALTree":
        """Flatten ``tree`` (breadth-first, children contiguous)."""
        col = cls()
        m = tree.depth
        col.num_levels = m
        col.num_objects = tree.num_objects
        frontier: list = [tree.root]
        for level, pairs in enumerate(tree.bfs_levels()):
            col.keys.append(
                np.asarray([child.key for _, child in pairs], dtype=np.intp)
            )
            col.desc.append(
                np.asarray([child.descendants for _, child in pairs], dtype=np.int64)
            )
            col.parent.append(np.asarray([pi for pi, _ in pairs], dtype=np.intp))
            if level > 0:
                # The child slice of each level-(l-1) node, derived from
                # the BFS parent indices (children are contiguous), so
                # child_start[l-1] / child_end[l-1] index INTO level l.
                counts = np.bincount(col.parent[level], minlength=len(frontier))
                ends_arr = np.cumsum(counts)
                col.child_start.append((ends_arr - counts).astype(np.intp))
                col.child_end.append(ends_arr.astype(np.intp))
            frontier = [child for _, child in pairs]
        # Leaves: the last level's nodes, in BFS order.
        ids: list[int] = []
        leaf_of: list[int] = []
        starts = []
        counts = []
        offset = 0
        for li, leaf in enumerate(frontier):
            starts.append(offset)
            counts.append(len(leaf.entries))
            for rid, _values in leaf.entries:
                ids.append(rid)
                leaf_of.append(li)
            offset += len(leaf.entries)
        col.leaf_start = np.asarray(starts, dtype=np.intp)
        col.leaf_count = np.asarray(counts, dtype=np.intp)
        col.entry_ids = np.asarray(ids, dtype=np.intp)
        col.entry_leaf = np.asarray(leaf_of, dtype=np.intp)
        return col

    def live_descendants(self, alive: np.ndarray) -> list[np.ndarray]:
        """Per-level live-descendant counts given an entry ``alive`` mask
        (the array analogue of the pointer tree's maintained counters)."""
        m = self.num_levels
        live: list[np.ndarray] = [np.zeros(0, dtype=np.int64)] * m
        if m == 0:
            return live
        nleaf = self.keys[m - 1].size
        leaf_live = np.bincount(
            self.entry_leaf[alive], minlength=nleaf
        ).astype(np.int64)
        live[m - 1] = leaf_live
        for level in range(m - 1, 0, -1):
            size = self.keys[level - 1].size
            live[level - 1] = np.bincount(
                self.parent[level], weights=live[level], minlength=size
            ).astype(np.int64)
        return live
