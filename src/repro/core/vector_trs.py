"""Vectorised (numpy) TRS over the columnar AL-Tree.

``VectorTRS`` is TRS — Algorithms 3–5 over the multi-attribute-sorted
layout — with both pruning phases executed through the
:mod:`repro.kernels` frontier kernels instead of node-at-a-time Python
traversals:

- **Batch structure is inherited, not re-derived.** Each batch is still
  accumulated in the pointer :class:`~repro.altree.tree.ALTree` under
  the same modeled memory budget, so batch boundaries, database passes
  and every page IO are bit-identical to TRS. The tree is then flattened
  once per batch (:class:`~repro.kernels.columnar.ColumnarALTree`) and
  all traversals for that batch run on the flat arrays. An overlay's
  tombstones move those boundaries, so an epoch that carries them gets
  its own plan, built once by its first read.
- **Phase 1** answers ``IsPrunable`` for the *whole batch at once*:
  one frontier sweep carries every (candidate, node) pair down the
  levels, with the candidate's own soft-removed path handled by an
  effective-descendant subtraction. The exact-duplicate fast path is
  reproduced bit-for-bit (including its check counts).
- **Phase 2** answers ``Prune`` for a *whole scanned page at once*,
  reusing the per-node ``d(u, q)`` thresholds gathered once per
  (tree, query) — the scalar code recomputes them per scanned object.

Results and page-IO counts are bit-identical to TRS; ``checks_*``
follow the frontier accounting documented in ``docs/performance.md``
(no early abort, no promising-subtree order ⇒ at least the scalar
counts). ``tests/test_kernels.py`` enforces the equivalence
differentially on randomized non-metric workloads.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.base import CostStats
from repro.core.trs import ENTRY_BYTES, NODE_BYTES, TRS
from repro.kernels.columnar import ColumnarALTree, dissimilarity_matrices
from repro.kernels.frontier import (
    batch_is_prunable,
    candidate_paths,
    leaf_min_tables,
    query_distances,
    query_node_rows,
    scan_prune,
)
from repro.kernels.plancache import PlanKey, plan_cache, plan_fingerprint
from repro.obs import hooks as _obs
from repro.storage.pagefile import PageFile

__all__ = ["VectorTRS", "export_plan", "import_plan"]


@dataclass(frozen=True)
class _Phase1Batch:
    """One phase-1 batch, fully preprocessed for query replay.

    Everything here depends only on (layout, budget, page size) — never
    on the query — so it is built once per layout and reused by every
    subsequent query on the same instance. ``trigger_page`` records the
    data page whose insertion tripped the memory budget (``None`` for
    the trailing partial batch), so replayed runs process each batch at
    the *same scan position* as TRS does: the disk head model classifies
    sequential vs random IO globally, and moving scratch-file writes
    relative to data-file reads would change those counts.
    """

    trigger_page: int | None
    col: ColumnarALTree
    ids: np.ndarray  # B record ids in batch order
    vals: np.ndarray  # B x m value ids
    dup: np.ndarray  # B bools: exact duplicate present in batch
    rest: np.ndarray  # indices of non-duplicate candidates
    rest_vals: np.ndarray  # vals[rest]
    rest_paths: np.ndarray  # candidate_paths(col, leaf_idx[rest])
    leaf_mins: tuple[np.ndarray, np.ndarray] | None  # leaf_min_tables(col)

    def records(self, rows: np.ndarray) -> list[tuple[int, tuple]]:
        """``(record_id, values)`` of the candidates at ``rows`` — built
        only for the few a query keeps, never for the whole batch."""
        return [
            (rid, tuple(values))
            for rid, values in zip(
                self.ids[rows].tolist(), self.vals[rows].tolist()
            )
        ]


def snapshot_batch(
    tree, batch: list[tuple], trigger_page: int | None, mats, order
) -> _Phase1Batch:
    """Flatten one accumulated phase-1 batch for query replay. ``batch``
    lists the tree's records in insertion order, each a tuple that
    starts ``(record_id, values)``."""
    col = ColumnarALTree.from_tree(tree)
    ids = np.fromiter((r[0] for r in batch), dtype=np.intp, count=len(batch))
    vals = np.asarray([r[1] for r in batch], dtype=np.intp).reshape(
        len(batch), -1
    )
    # Each candidate's leaf, via its (batch-unique) record id.
    by_id = np.argsort(col.entry_ids, kind="stable")
    leaf_idx = col.entry_leaf[
        by_id[np.searchsorted(col.entry_ids, ids, sorter=by_id)]
    ]
    dup = col.leaf_count[leaf_idx] >= 2
    rest = np.flatnonzero(~dup)
    return _Phase1Batch(
        trigger_page=trigger_page,
        col=col,
        ids=ids,
        vals=vals,
        dup=dup,
        rest=rest,
        rest_vals=vals[rest],
        rest_paths=candidate_paths(col, leaf_idx[rest]),
        leaf_mins=leaf_min_tables(col, mats, order),
    )


def batch_prunable(
    pb: _Phase1Batch, mats: list[np.ndarray], order, query
) -> tuple[np.ndarray, np.ndarray]:
    """``IsPrunable`` for every candidate of one batch against ``query``:
    ``(prunable, checks)``, one entry per candidate."""
    b = pb.ids.size
    m = len(mats)
    qd = query_distances(mats, pb.vals, query)
    prunable = np.zeros(b, dtype=bool)
    checks = np.zeros(b, dtype=np.int64)
    # Exact-duplicate fast path (same decision AND same check accounting
    # as TRS): a duplicate of c sits at distance 0 everywhere, so c is
    # prunable iff the query is strictly farther on some attribute —
    # found at the first qd > 0.
    if pb.dup.any():
        positive = qd[pb.dup] > 0.0
        hit = positive.any(axis=1)
        prunable[pb.dup] = hit
        checks[pb.dup] = np.where(hit, np.argmax(positive, axis=1) + 1, m)
    if pb.rest.size:
        prunable[pb.rest], checks[pb.rest] = batch_is_prunable(
            pb.col,
            mats,
            order,
            pb.rest_vals,
            qd[pb.rest],
            pb.rest_paths,
            leaf_mins=pb.leaf_mins,
        )
    return prunable, checks


class VectorTRS(TRS):
    """TRS with frontier-vectorised pruning phases (numpy backend)."""

    name = "VectorTRS"
    backend = "numpy"

    # -- plan-cache plumbing -------------------------------------------------
    # Two cache tiers serve the query-independent artifacts: per-instance
    # attributes (L1, identity-checked against the prepared layout) and
    # the process-wide repro.kernels.plancache (L2, content-keyed), so a
    # second engine/executor/forked worker over the same layout skips the
    # build entirely.
    def _plan_fp(self) -> str:
        fp = getattr(self, "_plan_fp_cache", None)
        if fp is None or self._plan_fp_layout is not self._layout:
            fp = plan_fingerprint(self.dataset, self._layout)
            self._plan_fp_cache = fp
            self._plan_fp_layout = self._layout
        return fp

    def _matrices(self) -> list[np.ndarray]:
        mats = getattr(self, "_mats_cache", None)
        if mats is None:
            if getattr(self, "_layout", None) is not None:
                mats = plan_cache().get_or_build(
                    PlanKey("dissim", self._plan_fp()),
                    lambda: dissimilarity_matrices(self.dataset, self.name),
                )
            else:  # pre-prepare call: no layout to key on yet
                mats = dissimilarity_matrices(self.dataset, self.name)
            self._mats_cache = mats
        return mats

    def with_overlay(self, overlay) -> "VectorTRS":
        clone = super().with_overlay(overlay)
        memo = clone.__dict__.get("_tomb_memo")
        if memo is not None and (
            clone.overlay is None or memo[1] != clone.overlay.tombstones
        ):
            # Another epoch's deletes: free that plan now, not when this
            # epoch's first read replaces it.
            del clone._tomb_memo
        return clone

    # -- phase-1 plans -------------------------------------------------------
    def _build_batches(self, pages) -> list[_Phase1Batch]:
        """TRS's phase-1 batching rule over ``pages``, an iterable of
        ``(trigger, records)``: every record of a page joins the batch
        tree, then the batch closes once the tree's modeled footprint
        reaches the memory budget, remembering ``trigger`` as the page
        that tripped it (``None`` for the trailing partial batch). The
        base, tombstone and delta plans all come out of this one loop."""
        budget_bytes = self.budget.pages * self.page_bytes
        mats = self._matrices()
        order = self.attribute_order
        batches: list[_Phase1Batch] = []
        tree = self._new_tree()
        batch: list[tuple] = []  # (record_id, values)
        for trigger, records in pages:
            for record in records:
                tree.insert(*record)
                batch.append(record)
            if tree.memory_bytes(NODE_BYTES, ENTRY_BYTES) >= budget_bytes:
                batches.append(snapshot_batch(tree, batch, trigger, mats, order))
                tree = self._new_tree()
                batch = []
        if batch:
            batches.append(snapshot_batch(tree, batch, None, mats, order))
        return batches

    def _phase1_batches(self, data_file: PageFile) -> list[_Phase1Batch]:
        """The phase-1 batch structure, flattened and preprocessed.

        TRS rebuilds its AL-Trees from the scan on *every* query, yet
        nothing about them depends on the query: batch boundaries come
        from the modeled memory budget, tree shape from the layout. So
        the first query on a layout builds the pointer trees once,
        flattens each batch to a :class:`ColumnarALTree`, and snapshots
        the per-candidate arrays; subsequent queries replay the cached
        batches and pay only for the query-dependent gathers. The built
        plan is also published to the process-wide plan cache, keyed by
        content fingerprint plus (budget, page size).
        """
        cached = getattr(self, "_p1_cache", None)
        if cached is not None and self._p1_cache_layout is self._layout:
            return cached
        key = PlanKey(
            "phase1", self._plan_fp(), (self.budget.pages, self.page_bytes)
        )
        batches = plan_cache().get(key)
        if batches is None:
            # Iterate raw pages without charging IO: the cache build is an
            # offline preprocessing step; every query still scans (and is
            # billed for) the data file itself in _phase1.
            batches = self._build_batches(
                (page_id, data_file.peek_page(page_id))
                for page_id in range(data_file.num_pages)
            )
            plan_cache().put(key, batches)
        self._p1_cache = batches
        self._p1_cache_layout = self._layout
        return batches

    def _tombstone_plan(self, data_file: PageFile):
        """This epoch's plan under tombstones: ``(batches, scan)``.

        Deleted records change which pages trip the memory budget, so
        the base plan cannot be replayed; ``batches`` is rebuilt with
        TRS's own rule (tombstoned records skipped while the batch tree
        fills), and ``scan`` is :meth:`_scan_arrays` without their rows
        (deleted records prune nobody in phase 2). Memoised on the
        instance, keyed by (layout, tombstone set) — epoch clones of an
        insert-only update inherit it — and never published to the
        process-wide plan cache: it lives for one epoch and would only
        evict base plans there."""
        tomb = self.overlay.tombstones
        memo = getattr(self, "_tomb_memo", None)
        if memo is not None and memo[0] is self._layout and memo[1] == tomb:
            return memo[2]
        ids, vals, pages = self._scan_arrays(data_file)
        keep = ~np.isin(ids, np.fromiter(tomb, dtype=np.intp, count=len(tomb)))
        batches = self._build_batches(
            (
                page_id,
                [r for r in data_file.peek_page(page_id) if r[0] not in tomb],
            )
            for page_id in range(data_file.num_pages)
        )
        plan = (batches, (ids[keep], vals[keep], pages[keep]))
        self._tomb_memo = (self._layout, tomb, plan)
        return plan

    def _delta_batches(self) -> list[_Phase1Batch]:
        """The overlay's delta entries as preprocessed phase-1 batches.

        The scalar appendix's batching rule (fresh trees, never mixed
        with base candidates, same memory budget, checked after every
        entry), flattened once per overlay instead of walked per query.
        Keyed on overlay identity, so epoch clones (``with_overlay``)
        rebuild while repeat queries within an epoch replay."""
        cached = getattr(self, "_delta_cache", None)
        if cached is not None and self._delta_cache_overlay is self.overlay:
            return cached
        batches = self._build_batches((None, [e]) for e in self.overlay.entries)
        self._delta_cache = batches
        self._delta_cache_overlay = self.overlay
        return batches

    def _scan_arrays(self, data_file: PageFile):
        """The data file as flat arrays in scan order — ``(ids, vals,
        page)`` with ``page[j]`` the page holding record ``j``. Built once
        per layout (uncharged peek; every query still pays for its own
        scans), shared by phase 2's whole-scan kernel, and published to
        the process-wide plan cache.
        """
        cached = getattr(self, "_scan_cache", None)
        if cached is not None and self._scan_cache_layout is self._layout:
            return cached
        key = PlanKey("scan", self._plan_fp(), (self.page_bytes,))
        shared = plan_cache().get(key)
        if shared is not None:
            self._scan_cache = shared
            self._scan_cache_layout = self._layout
            return shared
        ids: list[int] = []
        vals: list[tuple] = []
        pages: list[int] = []
        for page_id in range(data_file.num_pages):
            for record_id, values in data_file.peek_page(page_id):
                ids.append(record_id)
                vals.append(values)
                pages.append(page_id)
        arrays = (
            np.asarray(ids, dtype=np.intp),
            np.asarray(vals, dtype=np.intp).reshape(
                len(ids), self.dataset.num_attributes
            ),
            np.asarray(pages, dtype=np.intp),
        )
        plan_cache().put(key, arrays)
        self._scan_cache = arrays
        self._scan_cache_layout = self._layout
        return arrays

    # -- phase 1 -------------------------------------------------------------
    def _phase1(
        self, data_file: PageFile, scratch: PageFile, query: tuple, stats: CostStats
    ) -> list[tuple[int, tuple]]:
        overlay = self.overlay
        mats = self._matrices()
        order = self.attribute_order
        trace = self.trace_checks
        writer = scratch.writer()
        stats.db_passes += 1
        if overlay is not None and overlay.tombstones:
            batches, _ = self._tombstone_plan(data_file)
        else:
            # No deletes: an insert-only overlay replays the base plan
            # unchanged (its deltas run in batches of their own below).
            batches = self._phase1_batches(data_file)

        def process_batch(pb: _Phase1Batch) -> None:
            with _obs.span("kernel.phase1", backend=self.backend) as span:
                b = pb.ids.size
                prunable, checks = batch_prunable(pb, mats, order, query)
                stats.pruner_tests += b
                stats.checks_phase1 += int(checks.sum())
                if trace:
                    for c_id, c_checks in zip(pb.ids.tolist(), checks.tolist()):
                        stats.per_object_phase1[c_id] = (
                            stats.per_object_phase1.get(c_id, 0) + c_checks
                        )
                for c_id, c in pb.records(np.flatnonzero(~prunable)):
                    writer.append(c_id, c)
                stats.phase1_batches += 1
                span.annotate("candidates", b)
                span.annotate("nodes", sum(int(k.size) for k in pb.col.keys))

        # Replay: scan the data file (charging the same sequential reads
        # as TRS) and fire each cached batch at its recorded trigger
        # position, so scratch writes interleave with data reads exactly
        # as in the scalar run.
        next_batch = 0
        for page_id, _page in data_file.scan():
            if (
                next_batch < len(batches)
                and batches[next_batch].trigger_page == page_id
            ):
                process_batch(batches[next_batch])
                next_batch += 1
        while next_batch < len(batches):
            process_batch(batches[next_batch])
            next_batch += 1
        writer.close()
        # The delta entries run through their own preprocessed batches
        # (fresh trees, never mixed with base candidates, every
        # comparison charged to checks_delta).
        delta_survivors = self._phase1_delta_vec(query, stats)
        if overlay is None:
            stats.phase1_pruned = len(self.dataset) - scratch.num_records
        else:
            stats.phase1_pruned = (
                overlay.live_count(len(self.dataset))
                - scratch.num_records
                - len(delta_survivors)
            )
        return delta_survivors

    def _phase1_delta_vec(
        self, query: tuple, stats: CostStats
    ) -> list[tuple[int, tuple]]:
        """Vectorised form of :meth:`TRS._phase1_delta`: the same batch
        structure and pruning decisions, answered by the frontier kernel
        over the memoised delta batches instead of per-entry tree walks.
        """
        overlay = self.overlay
        if overlay is None or not overlay.entries:
            return []
        mats = self._matrices()
        order = self.attribute_order
        survivors: list[tuple[int, tuple]] = []
        for pb in self._delta_batches():
            prunable, checks = batch_prunable(pb, mats, order, query)
            stats.pruner_tests += pb.ids.size
            stats.checks_delta += int(checks.sum())
            stats.phase1_batches += 1
            survivors.extend(pb.records(np.flatnonzero(~prunable)))
        return survivors

    # -- phase 2 -------------------------------------------------------------
    def _phase2(
        self,
        data_file: PageFile,
        scratch: PageFile,
        query: tuple,
        stats: CostStats,
        delta_survivors: list[tuple[int, tuple]] | None = None,
    ) -> list[int]:
        overlay = self.overlay
        mats = self._matrices()
        order = self.attribute_order
        trace = self.trace_checks
        _, batch_pages = self.budget.split_for_second_phase()
        batch_bytes = batch_pages * self.page_bytes
        e_ids_all, e_vals_all, e_page = self._scan_arrays(data_file)
        # Overlay adjustments on the *pruner* side: tombstoned records
        # prune nobody (their rows drop out of the cached scan arrays;
        # their pages are still read, so IO counters stay pinned), and
        # every live delta entry streams as an extra pruner source after
        # the base scan — one synthetic "page" per delta entry, so the
        # same first-kill machinery reproduces the scalar visit order.
        d_ids = d_vals = None
        if overlay is not None:
            if overlay.tombstones:
                _, (e_ids_all, e_vals_all, e_page) = self._tombstone_plan(
                    data_file
                )
            if overlay.entries:
                d_ids = np.asarray(
                    [rid for rid, _ in overlay.entries], dtype=np.intp
                )
                d_vals = np.asarray(
                    [values for _, values in overlay.entries], dtype=np.intp
                ).reshape(len(overlay.entries), self.dataset.num_attributes)
        pending = delta_survivors or []
        d_idx = 0
        result: list[int] = []

        page_idx = 0
        while page_idx < scratch.num_pages or d_idx < len(pending):
            tree = self._new_tree()
            d_list: list[tuple[int, tuple]] = []
            # Same fill rule as TRS: identical batch boundaries, identical
            # random reads from the first-phase scratch file.
            while page_idx < scratch.num_pages:
                for record_id, values in scratch.read_page(page_idx):
                    tree.insert(record_id, values)
                page_idx += 1
                if tree.memory_bytes(NODE_BYTES, ENTRY_BYTES) >= batch_bytes:
                    break
            # Flatten the base candidates *before* the delta top-up: the
            # frontier kernel sweeps only them. Delta survivors are
            # typically weak candidates whose long-lived frontier paths
            # would dominate the sweep, yet a first-kill page is a
            # per-entry property (value-based, order-independent), so
            # theirs come from a direct whole-scan test below instead —
            # same kill pages, same stop page, same IO.
            col = ColumnarALTree.from_tree(tree)
            if page_idx >= scratch.num_pages:
                # Top the batch up with delta survivors once the scratch
                # file is exhausted (same insert-then-check rule as the
                # page loop, so every outer iteration makes progress; the
                # modeled memory tree holds base and delta candidates
                # alike, keeping batch boundaries bit-identical to TRS).
                while d_idx < len(pending):
                    rid, vals = pending[d_idx]
                    tree.insert(rid, vals)
                    d_list.append((rid, vals))
                    d_idx += 1
                    if tree.memory_bytes(NODE_BYTES, ENTRY_BYTES) >= batch_bytes:
                        break
            stats.phase2_batches += 1
            stats.db_passes += 1
            with _obs.span("kernel.phase2", backend=self.backend) as span:
                num_pages = data_file.num_pages
                if col.entry_ids.size:
                    q_rows = query_node_rows(col, mats, order, query)
                    # One whole-scan sweep decides every removal: phase-2
                    # deletions are value-based and monotone, so each entry
                    # dies at its first identity-valid dominator regardless
                    # of per-page processing order.
                    first_kill, checks = scan_prune(
                        col, mats, order, q_rows, e_ids_all, e_vals_all, e_page
                    )
                    if e_page.size:
                        # The kernel's "never killed" sentinel is one past
                        # the last *pruner-carrying* page, which under
                        # tombstones can sit before the file's true last
                        # page; renormalise so survival tests against
                        # stop_page stay exact.
                        kernel_np = int(e_page[-1]) + 1
                        if kernel_np < num_pages:
                            first_kill = np.where(
                                first_kill >= kernel_np, num_pages, first_kill
                            )
                    else:
                        first_kill = np.full(
                            col.entry_ids.size, num_pages, dtype=np.intp
                        )
                else:
                    first_kill = np.empty(0, dtype=np.intp)
                    checks = np.zeros(e_ids_all.size, dtype=np.int64)
                if d_list:
                    # First-kill pages of the batch's delta candidates:
                    # scanned object e kills candidate t iff e is no
                    # farther from t than the query on every attribute
                    # and strictly closer on one (ids can never collide —
                    # delta ids live past the base). Earliest such e's
                    # page, in scan order.
                    t_ids = np.asarray([rid for rid, _ in d_list], dtype=np.intp)
                    t_vals = np.asarray(
                        [vals for _, vals in d_list], dtype=np.intp
                    ).reshape(len(d_list), -1)
                    fk_delta = np.full(t_ids.size, num_pages, dtype=np.intp)
                    # Chunked over scan order with early exit: weak
                    # candidates (the common case — they lost phase 1's
                    # pruning only against the deltas) die within the
                    # first few pages, so most queries touch a fraction
                    # of the scan arrays.
                    undecided = np.arange(t_ids.size)
                    for s in range(0, e_page.size, 2048):
                        e_vals_c = e_vals_all[s : s + 2048]
                        sub_vals = t_vals[undecided]
                        all_le = np.ones(
                            (undecided.size, e_vals_c.shape[0]), dtype=bool
                        )
                        any_lt = np.zeros_like(all_le)
                        for i, mat in enumerate(mats):
                            rows = mat[sub_vals[:, i]]
                            d_te = rows[:, e_vals_c[:, i]]
                            d_tq = rows[:, query[i]][:, None]
                            all_le &= d_te <= d_tq
                            any_lt |= d_te < d_tq
                        killd = all_le & any_lt
                        hit = killd.any(axis=1)
                        if hit.any():
                            fk_delta[undecided[hit]] = e_page[
                                s + killd[hit].argmax(axis=1)
                            ]
                            undecided = undecided[~hit]
                            if not undecided.size:
                                break
                else:
                    t_ids = np.empty(0, dtype=np.intp)
                    fk_delta = np.empty(0, dtype=np.intp)
                all_fk = np.concatenate([first_kill, fk_delta])
                if all_fk.size and int(all_fk.max()) < num_pages:
                    # Every entry dies: the scalar scan finds its tree
                    # empty right after the latest first-kill page and
                    # stops there (before fetching another page).
                    stop_page = int(all_fk.max())
                else:
                    stop_page = num_pages - 1
                alive = first_kill > stop_page
                # Replay the charged scan to the same stopping page, so
                # sequential/random IO classification matches TRS exactly.
                for page_id, _dpage in data_file.scan():
                    if page_id == stop_page:
                        break
                read = e_page <= stop_page
                stats.checks_phase2 += int(checks[read].sum())
                if trace:
                    for e_id, e_checks in zip(e_ids_all[read], checks[read]):
                        if e_checks:
                            stats.per_object_phase2[int(e_id)] = (
                                stats.per_object_phase2.get(int(e_id), 0)
                                + int(e_checks)
                            )
                if t_ids.size:
                    # Comparisons against delta candidates are overlay-
                    # attributable (the scalar run charges them through
                    # its combined tree walk; the split keeps them out of
                    # the base-only kernel, so account for them here).
                    stats.checks_delta += (
                        int(read.sum()) * len(mats) * t_ids.size
                    )
                survivor_ids = np.concatenate(
                    [col.entry_ids[alive], t_ids[fk_delta > stop_page]]
                )
                if d_ids is not None and survivor_ids.size:
                    # Delta pruner sweep over the base-scan survivors.
                    # Both sets are small (deltas are bounded by the
                    # compaction threshold, survivors by the batch's
                    # result contribution), so a direct pairwise
                    # dominance test beats rebuilding a sub-tree: delta
                    # d removes survivor t iff d is no farther from t
                    # than the query on every attribute, strictly closer
                    # on one, and is not t's own record. Visit accounting
                    # mirrors the scalar stream order: deltas are read
                    # one at a time until the batch is exhausted or
                    # every survivor is dead.
                    survivor_vals = {
                        rid: vals for rid, vals in tree.iter_entries()
                    }
                    t_vals = np.asarray(
                        [survivor_vals[int(rid)] for rid in survivor_ids],
                        dtype=np.intp,
                    )
                    all_le = np.ones(
                        (survivor_ids.size, d_ids.size), dtype=bool
                    )
                    any_lt = np.zeros_like(all_le)
                    for i, mat in enumerate(mats):
                        d_te = mat[
                            t_vals[:, i][:, None], d_vals[:, i][None, :]
                        ]
                        d_tq = mat[t_vals[:, i], query[i]][:, None]
                        all_le &= d_te <= d_tq
                        any_lt |= d_te < d_tq
                    kill = (
                        all_le
                        & any_lt
                        & (survivor_ids[:, None] != d_ids[None, :])
                    )
                    n_delta = d_ids.size
                    first_d = np.where(
                        kill.any(axis=1), kill.argmax(axis=1), n_delta
                    )
                    if int(first_d.max()) < n_delta:
                        # The tree empties mid-stream: the scalar loop
                        # stops after the delta entry that killed last.
                        visits = int(first_d.max()) + 1
                    else:
                        visits = n_delta
                    stats.delta_visits += visits
                    stats.checks_delta += (
                        visits * int(survivor_ids.size) * len(mats)
                    )
                    survivor_ids = survivor_ids[first_d >= n_delta]
                span.annotate("survivors", int(survivor_ids.size))
                result.extend(int(rid) for rid in survivor_ids)
        return result


# -- plan serialisation (shared-memory publication) ---------------------------
# A built phase-1 plan is a pile of numpy arrays plus tiny metadata, so
# it flattens losslessly into a named-array dict — the wire format
# repro.exec.shm packs into one shared-memory segment. ``import_plan``
# reassembles _Phase1Batch objects over the (read-only, zero-copy) views
# a worker attached; the pointer trees are never rebuilt.


def export_plan(batches: list[_Phase1Batch]) -> tuple[list[dict], dict]:
    """Flatten a phase-1 plan into ``(meta, arrays)``.

    ``meta`` is a small picklable list (one dict per batch); ``arrays``
    maps unique names to numpy arrays. Together they round-trip through
    :func:`import_plan` bit-identically.
    """
    meta: list[dict] = []
    arrays: dict[str, np.ndarray] = {}
    for ib, pb in enumerate(batches):
        col = pb.col
        p = f"p1b{ib}."
        meta.append(
            {
                "trigger_page": pb.trigger_page,
                "levels": col.num_levels,
                "has_lmins": pb.leaf_mins is not None,
            }
        )
        arrays[p + "ids"] = pb.ids
        arrays[p + "vals"] = pb.vals
        arrays[p + "dup"] = pb.dup
        arrays[p + "rest"] = pb.rest
        arrays[p + "rest_vals"] = pb.rest_vals
        arrays[p + "rest_paths"] = pb.rest_paths
        if pb.leaf_mins is not None:
            arrays[p + "lmin0"], arrays[p + "lmin1"] = pb.leaf_mins
        arrays[p + "leaf_start"] = col.leaf_start
        arrays[p + "leaf_count"] = col.leaf_count
        arrays[p + "entry_ids"] = col.entry_ids
        arrays[p + "entry_leaf"] = col.entry_leaf
        for lv in range(col.num_levels):
            arrays[f"{p}keys{lv}"] = col.keys[lv]
            arrays[f"{p}desc{lv}"] = col.desc[lv]
            arrays[f"{p}parent{lv}"] = col.parent[lv]
        for lv in range(len(col.child_start)):
            arrays[f"{p}cs{lv}"] = col.child_start[lv]
            arrays[f"{p}ce{lv}"] = col.child_end[lv]
    return meta, arrays


def import_plan(meta: list[dict], arrays: dict) -> list[_Phase1Batch]:
    """Reassemble a phase-1 plan from :func:`export_plan` output (the
    arrays may be zero-copy shared-memory views)."""
    batches: list[_Phase1Batch] = []
    for ib, info in enumerate(meta):
        p = f"p1b{ib}."
        levels = int(info["levels"])
        col = ColumnarALTree.from_arrays(
            keys=[arrays[f"{p}keys{lv}"] for lv in range(levels)],
            desc=[arrays[f"{p}desc{lv}"] for lv in range(levels)],
            parent=[arrays[f"{p}parent{lv}"] for lv in range(levels)],
            child_start=[
                arrays[f"{p}cs{lv}"] for lv in range(max(0, levels - 1))
            ],
            child_end=[
                arrays[f"{p}ce{lv}"] for lv in range(max(0, levels - 1))
            ],
            leaf_start=arrays[p + "leaf_start"],
            leaf_count=arrays[p + "leaf_count"],
            entry_ids=arrays[p + "entry_ids"],
            entry_leaf=arrays[p + "entry_leaf"],
        )
        leaf_mins = (
            (arrays[p + "lmin0"], arrays[p + "lmin1"])
            if info["has_lmins"]
            else None
        )
        batches.append(
            _Phase1Batch(
                trigger_page=info["trigger_page"],
                col=col,
                ids=arrays[p + "ids"],
                vals=arrays[p + "vals"],
                dup=arrays[p + "dup"],
                rest=arrays[p + "rest"],
                rest_vals=arrays[p + "rest_vals"],
                rest_paths=arrays[p + "rest_paths"],
                leaf_mins=leaf_mins,
            )
        )
    return batches
