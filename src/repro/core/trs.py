"""Tree Reverse Skyline — TRS (paper Section 4.3, Algorithms 3-5).

The paper's main contribution. TRS keeps the two-phase block structure of
BRS/SRS but holds each in-memory batch in an AL-Tree (a prefix tree over
the attribute-ordered records), which buys three things:

1. **Group-level reasoning** — one failed comparison at an internal node
   discharges *every* object sharing that prefix, so checking whether an
   object is prunable costs far fewer attribute comparisons.
2. **Early pruning with guided search** — ``IsPrunable`` visits promising
   subtrees (more descendants) first and aborts at the first pruner leaf.
3. **Batch compaction** — shared prefixes are stored once, so more objects
   fit per batch, shrinking intermediate results and random IO.

Phase 1 checks each batch object against the tree with ``IsPrunable``
(Algorithm 4, the object itself removed first). Phase 2 loads batches of
first-phase survivors into a tree and streams the database through
``Prune`` (Algorithm 5), which deletes every tree object the scanned
record dominates the query for.
"""

from __future__ import annotations

import copy
from collections.abc import Sequence

from repro.altree.tree import ALTree
from repro.core.base import CostStats, ReverseSkylineAlgorithm
from repro.core.overlay import Overlay
from repro.data.dataset import Dataset
from repro.obs import hooks as _obs
from repro.sorting.keys import ascending_cardinality_order, multiattribute_key
from repro.storage.disk import DEFAULT_PAGE_BYTES, DiskSimulator, MemoryBudget
from repro.storage.pagefile import PageFile

__all__ = ["TRS", "is_prunable", "prune_tree", "prune_tree_cols"]

# Modeled AL-Tree memory costs (see ALTree.memory_bytes): a non-root node
# stores a value id and a descendant counter; a leaf entry stores a record id.
NODE_BYTES = 8
ENTRY_BYTES = 4


def is_prunable(
    tree: ALTree,
    c: tuple,
    qd: list[float],
    tables: list,
    *,
    order_children: bool = True,
) -> tuple[bool, int]:
    """Algorithm 4: is there an object in ``tree`` that dominates the query
    with respect to ``c``?

    ``qd[i]`` must hold ``d_i(c_i, q_i)``. Returns ``(prunable, checks)``
    where ``checks`` counts attribute-level comparisons (one per child
    node considered at line 9).

    Depth-first with a LIFO stack. Children are pushed in *increasing*
    descendant order so the largest (most promising) subtree is popped
    first; a child is pushed only if its value is no farther from ``c``
    than the query is (line 9 — the group-level elimination), and its
    ``FoundCloser`` flag records whether some fixed attribute is strictly
    closer (line 10). A leaf reached with ``FoundCloser`` set is a pruner.
    """
    order = tree.attribute_order
    checks = 0
    # Per-traversal cache of c's dissimilarity rows by attribute.
    rows = [tables[i][c[i]] for i in range(len(c))]
    stack: list[tuple] = [(tree.root, False)]
    push = stack.append
    pop = stack.pop
    while stack:
        node, found_closer = pop()
        if node.entries:
            if found_closer:
                return True, checks
            continue
        children = node.children.values()
        if order_children and len(children) > 1:
            children = node.children_by_promise()
        for child in children:
            if not child.descendants:
                continue  # soft-removed subtree (Algorithm 3's M \ c)
            i = order[child.position]
            d_cp = rows[i][child.key]
            d_cq = qd[i]
            checks += 1
            if d_cp <= d_cq:
                push((child, found_closer or d_cp < d_cq))
    return False, checks


def prune_tree(
    tree: ALTree,
    e_id: int,
    e: tuple,
    q: tuple,
    tables: list,
) -> tuple[int, int]:
    """Algorithm 5: remove from ``tree`` every object ``x`` such that ``e``
    dominates the query with respect to ``x`` — except ``e`` itself, if
    present (identity, not value: duplicates of ``e`` are removed).

    Note the direction flip versus :func:`is_prunable`: distances are
    measured *from the tree object's values* ``u`` (the candidate ``x``),
    comparing ``d_i(u_i, e_i)`` against ``d_i(u_i, q_i)``.

    Returns ``(removed_count, checks)``.
    """
    order = tree.attribute_order
    checks = 0
    removed = 0
    stack: list[tuple] = [(tree.root, False)]
    push = stack.append
    pop = stack.pop
    while stack:
        node, found_closer = pop()
        if node.parent is None and node is not tree.root:
            continue  # detached by an earlier removal while queued
        if node.entries:
            if found_closer:
                removed += tree.remove_entries(node, keep=lambda ent: ent[0] == e_id)
            continue
        for child in list(node.children.values()):
            i = order[child.position]
            row = tables[i][child.key]
            d_pe = row[e[i]]
            d_pq = row[q[i]]
            checks += 1
            if d_pe <= d_pq:
                push((child, found_closer or d_pe < d_pq))
    return removed, checks


def prune_tree_cols(
    tree: ALTree,
    e_id: int,
    ecols: list,
    qcols: list,
) -> tuple[int, int]:
    """:func:`prune_tree` with the dissimilarity lookups pre-gathered.

    ``ecols[i][u] = d_i(u, e_i)`` and ``qcols[i][u] = d_i(u, q_i)`` for
    every value ``u`` of attribute ``i``. Gathering ``ecols`` once per
    scanned object lets a multi-query phase 2 share it across *all*
    queries' traversals (and ``qcols`` across all scanned objects),
    instead of re-indexing the dissimilarity tables per (object, query,
    node). Traversal order, removals and check counts are identical to
    :func:`prune_tree`.
    """
    order = tree.attribute_order
    checks = 0
    removed = 0
    stack: list[tuple] = [(tree.root, False)]
    push = stack.append
    pop = stack.pop
    while stack:
        node, found_closer = pop()
        if node.parent is None and node is not tree.root:
            continue  # detached by an earlier removal while queued
        if node.entries:
            if found_closer:
                removed += tree.remove_entries(node, keep=lambda ent: ent[0] == e_id)
            continue
        for child in list(node.children.values()):
            i = order[child.position]
            d_pe = ecols[i][child.key]
            d_pq = qcols[i][child.key]
            checks += 1
            if d_pe <= d_pq:
                push((child, found_closer or d_pe < d_pq))
    return removed, checks


class TRS(ReverseSkylineAlgorithm):
    """Algorithms 3-5 over the multi-attribute-sorted layout.

    Parameters (beyond the base class)
    ----------------------------------
    attribute_order:
        Tree level order; defaults to ascending attribute cardinality
        (Section 5.1's heuristic: big groups near the root).
    presort:
        Ablation switch — ``False`` runs TRS over the native disk order
        (trees still work, but batches cluster less, weakening phase 1).
    order_children:
        Ablation switch for Algorithm 4's promising-subtree-first order.
    overlay:
        Optional :class:`~repro.core.overlay.Overlay` of uncompacted
        updates. Queries then answer over the logical dataset
        ``base ∖ tombstones ∪ delta entries``: tombstoned records are
        neither candidates nor pruners (their pages are still read, so
        base IO stays pinned), and delta entries are both candidates and
        pruners, processed in fresh in-memory batches whose comparisons
        charge ``stats.checks_delta`` instead of the base phase counters.
    """

    name = "TRS"

    def __init__(
        self,
        dataset: Dataset,
        *,
        attribute_order: Sequence[int] | None = None,
        presort: bool = True,
        order_children: bool = True,
        memory_fraction: float = 0.10,
        budget: MemoryBudget | None = None,
        page_bytes: int = DEFAULT_PAGE_BYTES,
        trace_checks: bool = False,
        overlay: Overlay | None = None,
    ) -> None:
        super().__init__(
            dataset,
            memory_fraction=memory_fraction,
            budget=budget,
            page_bytes=page_bytes,
            trace_checks=trace_checks,
        )
        self.attribute_order = (
            list(attribute_order)
            if attribute_order is not None
            else ascending_cardinality_order(dataset.schema, dataset)
        )
        self.presort = presort
        self.order_children = order_children
        if overlay is not None and overlay.empty:
            overlay = None
        self.overlay = overlay

    def with_overlay(self, overlay: Overlay | None) -> "TRS":
        """A shallow clone of this prepared instance answering over a
        different overlay. The memos an instance carries — layout,
        staged pages, plan fingerprint, the vector backend's plan and
        scan caches — depend only on the immutable base, so the clone
        shares them all; the vector backend's per-epoch delta and
        tombstone plans are keyed on the overlay and rebuilt when it
        changes. The maintenance engine
        uses this to advance epochs without re-preparing."""
        clone = copy.copy(self)
        if overlay is not None and overlay.empty:
            overlay = None
        clone.overlay = overlay
        return clone

    # -- layout -----------------------------------------------------------
    def _build_layout(self) -> list[tuple[int, tuple]]:
        entries = list(enumerate(self.dataset.records))
        if not self.presort:
            return entries
        key = multiattribute_key(self.attribute_order)
        return sorted(entries, key=lambda entry: key(entry[1]))

    # -- query processing ----------------------------------------------------
    def _execute(
        self, disk: DiskSimulator, data_file: PageFile, query: tuple, stats: CostStats
    ) -> list[int]:
        scratch = disk.create_file("phase1-results", data_file.codec)
        with _obs.span("phase1") as span:
            # Subclasses that predate the overlay return None from _phase1;
            # only overlay-aware implementations return delta survivors.
            delta_survivors = self._phase1(data_file, scratch, query, stats) or []
            span.annotate("survivors", scratch.num_records + len(delta_survivors))
        stats.intermediate_count = scratch.num_records + len(delta_survivors)
        with _obs.span("phase2"):
            if delta_survivors:
                return self._phase2(
                    data_file, scratch, query, stats, delta_survivors=delta_survivors
                )
            return self._phase2(data_file, scratch, query, stats)

    def _new_tree(self) -> ALTree:
        return ALTree(self.attribute_order)

    def _phase1(
        self, data_file: PageFile, scratch: PageFile, query: tuple, stats: CostStats
    ) -> list[tuple[int, tuple]]:
        tables = self._tables()
        m = self.dataset.num_attributes
        trace = self.trace_checks
        budget_bytes = self.budget.pages * self.page_bytes
        writer = scratch.writer()
        stats.db_passes += 1
        overlay = self.overlay
        tomb = overlay.tombstones if overlay is not None else frozenset()

        tree = self._new_tree()
        batch: list[tuple] = []  # (record_id, values, leaf)

        def process_batch() -> None:
            for c_id, c, leaf in batch:
                qd = [tables[i][c[i]][query[i]] for i in range(m)]
                if leaf.count >= 2:
                    # An exact duplicate of c is in the batch. It sits at
                    # distance 0 from c on every attribute, so it prunes c
                    # iff the query is strictly farther somewhere; and if
                    # the query is at distance 0 everywhere, *nothing* can
                    # prune c. Either way the decision needs no traversal.
                    prunable = False
                    checks = m
                    for i in range(m):
                        if qd[i] > 0.0:
                            prunable = True
                            checks = i + 1
                            break
                else:
                    # IsPrunable(c, M \ c): soft-remove c for the traversal.
                    entry = tree.soft_remove(leaf, c_id)
                    prunable, checks = is_prunable(
                        tree, c, qd, tables, order_children=self.order_children
                    )
                    tree.soft_restore(leaf, entry)  # still prunes others
                stats.pruner_tests += 1
                stats.charge_phase1(c_id, checks, trace=trace)
                if not prunable:
                    writer.append(c_id, c)
            stats.phase1_batches += 1

        for _, page in data_file.scan():
            for record_id, values in page:
                if record_id in tomb:
                    continue  # logically deleted: not a candidate, not a pruner
                leaf = tree.insert(record_id, values)
                batch.append((record_id, values, leaf))
            if tree.memory_bytes(NODE_BYTES, ENTRY_BYTES) >= budget_bytes:
                process_batch()
                tree = self._new_tree()
                batch = []
        if batch:
            process_batch()
        writer.close()
        delta_survivors = self._phase1_delta(query, stats)
        if overlay is None:
            stats.phase1_pruned = len(self.dataset) - scratch.num_records
        else:
            stats.phase1_pruned = (
                overlay.live_count(len(self.dataset))
                - scratch.num_records
                - len(delta_survivors)
            )
        return delta_survivors

    def _phase1_delta(
        self, query: tuple, stats: CostStats
    ) -> list[tuple[int, tuple]]:
        """Phase-1 filter the overlay's delta entries.

        Delta entries always start **fresh** batches, never mixed with
        base candidates — phase 1 is only a sound filter (survivors ⊇
        RS), so keeping the base batch structure untouched leaves cached
        vector phase-1 plans bit-identical to the overlay-free run.
        ``VectorTRS._phase1_delta_vec`` answers the same batches with the
        frontier kernel. Survivors stay in memory (never written to scratch): deltas do
        not touch the simulated disk, so base IO counters stay pinned.
        All comparisons charge ``stats.checks_delta``.
        """
        overlay = self.overlay
        if overlay is None or not overlay.entries:
            return []
        tables = self._tables()
        m = self.dataset.num_attributes
        budget_bytes = self.budget.pages * self.page_bytes
        survivors: list[tuple[int, tuple]] = []

        tree = self._new_tree()
        batch: list[tuple] = []

        def process_batch() -> None:
            for c_id, c, leaf in batch:
                qd = [tables[i][c[i]][query[i]] for i in range(m)]
                if leaf.count >= 2:
                    # Same duplicate fast path as the base loop.
                    prunable = False
                    checks = m
                    for i in range(m):
                        if qd[i] > 0.0:
                            prunable = True
                            checks = i + 1
                            break
                else:
                    entry = tree.soft_remove(leaf, c_id)
                    prunable, checks = is_prunable(
                        tree, c, qd, tables, order_children=self.order_children
                    )
                    tree.soft_restore(leaf, entry)
                stats.pruner_tests += 1
                stats.checks_delta += checks
                if not prunable:
                    survivors.append((c_id, c))
            stats.phase1_batches += 1

        for d_id, d in overlay.entries:
            leaf = tree.insert(d_id, d)
            batch.append((d_id, d, leaf))
            if tree.memory_bytes(NODE_BYTES, ENTRY_BYTES) >= budget_bytes:
                process_batch()
                tree = self._new_tree()
                batch = []
        if batch:
            process_batch()
        return survivors

    def _phase2(
        self,
        data_file: PageFile,
        scratch: PageFile,
        query: tuple,
        stats: CostStats,
        delta_survivors: list[tuple[int, tuple]] | None = None,
    ) -> list[int]:
        tables = self._tables()
        trace = self.trace_checks
        _, batch_pages = self.budget.split_for_second_phase()
        batch_bytes = batch_pages * self.page_bytes
        result: list[int] = []
        overlay = self.overlay
        tomb = overlay.tombstones if overlay is not None else frozenset()
        delta_entries = overlay.entries if overlay is not None else ()
        pending = delta_survivors or []
        d_idx = 0

        page_idx = 0
        while page_idx < scratch.num_pages or d_idx < len(pending):
            tree = self._new_tree()
            # Fill the tree with first-phase results until the tree's
            # modeled footprint reaches the batch budget.
            while page_idx < scratch.num_pages:
                for record_id, values in scratch.read_page(page_idx):
                    tree.insert(record_id, values)
                page_idx += 1
                if tree.memory_bytes(NODE_BYTES, ENTRY_BYTES) >= batch_bytes:
                    break
            if page_idx >= scratch.num_pages:
                # Top the batch up with delta survivors once the scratch
                # file is exhausted (same insert-then-check rule as the
                # page loop, so every outer iteration makes progress).
                while d_idx < len(pending):
                    rid, vals = pending[d_idx]
                    tree.insert(rid, vals)
                    d_idx += 1
                    if tree.memory_bytes(NODE_BYTES, ENTRY_BYTES) >= batch_bytes:
                        break
            stats.phase2_batches += 1
            stats.db_passes += 1
            for _, dpage in data_file.scan():
                if tree.num_objects == 0:
                    break
                for e_id, e in dpage:
                    if e_id in tomb:
                        continue  # deleted records prune nobody
                    _, checks = prune_tree(tree, e_id, e, query, tables)
                    if checks:
                        stats.charge_phase2(e_id, checks, trace=trace)
                if tree.num_objects == 0:
                    break
            # Every live delta entry streams as a pruner source too —
            # phase 2 is exact only if the whole logical dataset streams.
            for del_id, del_values in delta_entries:
                if tree.num_objects == 0:
                    break
                stats.delta_visits += 1
                _, checks = prune_tree(tree, del_id, del_values, query, tables)
                if checks:
                    stats.checks_delta += checks
            result.extend(record_id for record_id, _ in tree.iter_entries())
        return result
