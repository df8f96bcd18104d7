"""Shared-scan processing of reverse-skyline query batches.

Influence workloads (Section 1) answer *many* reverse-skyline queries over
the same database — one per candidate car, admin profile, or offer.
Running TRS per query repeats the expensive part: the sequential passes
over the database. The key observation enabling sharing is that the
AL-Tree built from a batch of records **does not depend on the query** —
only the traversals do. So:

- **Phase 1** streams the database once, builds one tree per batch, and
  runs one ``IsPrunable`` traversal per (object, query) pair, writing one
  survivor area ``R_q`` per query.
- **Phase 2** builds one (query-specific) tree per survivor set, then
  streams the database once, feeding every scanned object through each
  query's ``Prune`` traversal. When the survivor trees jointly fit the
  budget, a *single* extra pass finishes **all** queries.

IO therefore stays at ~2 sequential passes *total* instead of ~2 per
query; computation is unchanged (the per-query traversals still happen).

Backends
--------
``run_batch`` honours the same backend selection as single-query TRS
(see :mod:`repro.kernels`): the ``python`` backend runs the scalar
traversals (with the per-scanned-object dissimilarity columns gathered
once and shared across every query's phase-2 traversal), while the
array backends flatten each batch tree once and route both phases
through kernels. By default the array path is **fused**
(:mod:`repro.kernels.fused`): one stacked
:func:`~repro.kernels.frontier.batch_is_prunable` sweep over all
(candidate, query) rows per batch in phase 1, and one forest descent
over every member query's survivor tree per page in phase 2 — a single
kernel invocation per planner group instead of one per query.
``fused=False`` keeps the per-query kernel loop (one sweep per
(query, batch) / (query, page)), which the benchmarks use as the
pre-fusion baseline. Results, batch structure and page IOs are
bit-identical across all of it; ``checks_*`` follow each array shape's
documented accounting (fused == per-query by construction; only
``python`` differs, by its early-abort granularity).
"""

from __future__ import annotations

import time
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from repro.altree.tree import ALTree
from repro.core.base import CostStats
from repro.core.trs import (
    ENTRY_BYTES,
    NODE_BYTES,
    TRS,
    is_prunable,
    prune_tree_cols,
)
from repro.data.dataset import Dataset
from repro.errors import AlgorithmError
from repro.kernels import fused as fused_kernels
from repro.kernels.backend import array_tier, normalize_backend
from repro.kernels.columnar import ColumnarALTree, dissimilarity_matrices
from repro.kernels.frontier import page_prune, query_node_rows
from repro.obs import hooks as _obs
from repro.storage.disk import DEFAULT_PAGE_BYTES, DiskSimulator, MemoryBudget

__all__ = ["MultiQueryResult", "SharedScanTRS"]


@dataclass(frozen=True)
class MultiQueryResult:
    """Outcome of one shared-scan batch run."""

    queries: tuple[tuple, ...]
    results: tuple[tuple[int, ...], ...]
    #: Combined cost of the whole batch (IO is shared; checks are summed).
    stats: CostStats
    #: Attribute checks attributable to each query.
    per_query_checks: tuple[int, ...] = field(default=())
    #: Concrete kernel tier that produced this batch (``python`` or
    #: ``numpy``).
    backend: str = "python"
    #: Phase split of ``per_query_checks`` (same length; elementwise the
    #: two tuples sum to it). The batch planner uses the split to emit
    #: per-query :class:`CostStats` rows that add up to the shared run.
    per_query_checks_phase1: tuple[int, ...] = field(default=())
    per_query_checks_phase2: tuple[int, ...] = field(default=())

    def result_for(self, query: tuple) -> tuple[int, ...]:
        try:
            return self.results[self.queries.index(tuple(query))]
        except ValueError:
            raise AlgorithmError(f"query {query!r} was not part of this batch") from None


class SharedScanTRS:
    """TRS over a *batch* of queries with shared database scans.

    Construction mirrors :class:`~repro.core.trs.TRS` (same layout step,
    same memory model); :meth:`run_batch` answers any number of queries.
    ``backend`` selects the compute backend (``python``, ``numpy`` or
    ``auto``; ``None`` keeps the scalar path). ``fused``
    (default) routes the array backends through the fused multi-query
    kernels — one invocation per (phase, batch/page) for the whole
    group; ``fused=False`` keeps the per-query kernel loop.
    """

    name = "SharedScanTRS"

    def __init__(
        self,
        dataset: Dataset,
        *,
        attribute_order: Sequence[int] | None = None,
        memory_fraction: float = 0.10,
        budget: MemoryBudget | None = None,
        page_bytes: int = DEFAULT_PAGE_BYTES,
        backend: str | None = None,
        fused: bool = True,
        fault_injector=None,
        retry_policy=None,
    ) -> None:
        # Reuse TRS for layout and configuration handling.
        self._trs = TRS(
            dataset,
            attribute_order=attribute_order,
            memory_fraction=memory_fraction,
            budget=budget,
            page_bytes=page_bytes,
        )
        self.dataset = dataset
        self.page_bytes = self._trs.page_bytes
        self.budget = self._trs.budget
        self.attribute_order = self._trs.attribute_order
        self.backend = normalize_backend(backend)
        self.fused = fused
        self.fault_injector = fault_injector
        self.retry_policy = retry_policy

    def prepare(self) -> None:
        self._trs.prepare()

    def use_layout(self, entries) -> None:
        """Adopt a specific on-disk order (see
        :meth:`~repro.core.base.ReverseSkylineAlgorithm.use_layout`);
        the planner hands over the engine's already-sorted layout so a
        fresh shared-scan instance skips the sort."""
        self._trs.use_layout(entries)

    def run_batch(self, queries: Sequence[tuple]) -> MultiQueryResult:
        """Answer every query, sharing all database passes."""
        if not queries:
            raise AlgorithmError("need at least one query")
        qs = [self.dataset.validate_query(q) for q in queries]
        self.prepare()
        backend = array_tier(self.backend, self.dataset)
        tables = self._trs._tables()
        mats = (
            dissimilarity_matrices(self.dataset, self.name)
            if backend != "python"
            else None
        )
        m = self.dataset.num_attributes
        order = self.attribute_order

        disk = DiskSimulator(
            self.page_bytes,
            fault_injector=self.fault_injector,
            retry_policy=self.retry_policy,
        )
        try:
            return self._run_batch(disk, qs, backend, tables, mats, m, order)
        finally:
            disk.close()

    def _run_batch(
        self, disk, qs, backend, tables, mats, m, order
    ) -> MultiQueryResult:
        data_file = disk.load_entries(self.dataset.schema, self._trs.layout, "data")
        stats = CostStats()
        pqc1 = [0] * len(qs)
        pqc2 = [0] * len(qs)
        started = time.perf_counter()
        fused = self.fused and backend != "python"
        qarr = None
        if fused:
            qarr = np.asarray(qs, dtype=np.intp).reshape(len(qs), m)
        if _obs.enabled:
            if fused:
                _obs.inc("repro_kernel_fused_groups_total", 1, tier=backend)
            for tier_name in ("python", "numpy"):
                _obs.set_gauge(
                    "repro_kernel_backend_tier",
                    1.0 if tier_name == backend else 0.0,
                    tier=tier_name,
                )

        # ---- phase 1: one pass, one tree per batch, k traversals/object --
        scratches = [
            disk.create_file(f"phase1-q{qi}", data_file.codec) for qi in range(len(qs))
        ]
        writers = [s.writer() for s in scratches]
        stats.db_passes += 1
        budget_bytes = self.budget.pages * self.page_bytes
        tree = ALTree(order)
        batch: list[tuple] = []  # (record_id, values, leaf)

        # The per-batch shared artifacts of the numpy path — the columnar
        # tree, candidate paths, collapsed leaf tables — are exactly what
        # VectorTRS caches process-wide, under the same content key. A
        # populated plan cache (same layout queried before, or a plan the
        # executor imported over shared memory) lets this run *replay*
        # the batches instead of rebuilding the trees; a cold cache
        # builds them here and publishes for the next run.
        plan_key = plan = None
        if backend != "python":
            from repro.core.vector_trs import batch_prunable, snapshot_batch
            from repro.kernels.plancache import (
                PlanKey,
                plan_cache,
                plan_fingerprint,
            )

            plan_key = PlanKey(
                "phase1",
                plan_fingerprint(self.dataset, self._trs.layout),
                (self.budget.pages, self.page_bytes),
            )
            plan = plan_cache().get(plan_key)
        built: list = []

        def process_shared(pb) -> None:
            # One cached-or-fresh bundle; fused = one stacked kernel
            # sweep for the whole group, legacy = one sweep per query.
            with _obs.span("kernel.phase1", backend=backend) as span:
                b = pb.ids.size
                if fused:
                    survive, checks2d = fused_kernels.fused_phase1(
                        pb, mats, order, qarr
                    )
                    per_q = checks2d.sum(axis=0)
                    for qi in range(len(qs)):
                        pqc1[qi] += int(per_q[qi])
                    stats.checks_phase1 += int(per_q.sum())
                    stats.pruner_tests += b * len(qs)
                else:
                    survive = np.zeros((b, len(qs)), dtype=bool)
                    for qi, q in enumerate(qs):
                        prunable, checks = batch_prunable(pb, mats, order, q)
                        total = int(checks.sum())
                        stats.checks_phase1 += total
                        pqc1[qi] += total
                        stats.pruner_tests += b
                        survive[:, qi] = ~prunable
                # Append survivors candidate-major (query-minor) — the
                # scalar append order — so writer page flushes hit the
                # disk-head model in the same sequence.
                rows = np.flatnonzero(survive.any(axis=1))
                for bi, (c_id, c) in zip(rows, pb.records(rows)):
                    for qi in np.flatnonzero(survive[bi]):
                        writers[qi].append(c_id, c)
                stats.phase1_batches += 1
                span.annotate("candidates", b)
                span.annotate("queries", len(qs))

        def process_batch_python(trigger_page) -> None:
            for c_id, c, leaf in batch:
                has_duplicate = leaf.count >= 2
                rows = [tables[i][c[i]] for i in range(m)]
                entry = None
                if not has_duplicate:
                    entry = tree.soft_remove(leaf, c_id)
                for qi, q in enumerate(qs):
                    qd = [rows[i][q[i]] for i in range(m)]
                    if has_duplicate:
                        prunable = False
                        checks = m
                        for i in range(m):
                            if qd[i] > 0.0:
                                prunable = True
                                checks = i + 1
                                break
                    else:
                        prunable, checks = is_prunable(tree, c, qd, tables)
                    stats.checks_phase1 += checks
                    pqc1[qi] += checks
                    stats.pruner_tests += 1
                    if not prunable:
                        writers[qi].append(c_id, c)
                if entry is not None:
                    tree.soft_restore(leaf, entry)
            stats.phase1_batches += 1

        def process_batch_numpy(trigger_page) -> None:
            # Flatten once per batch into the shared bundle (cached for
            # the next run on this layout), then sweep every query.
            pb = snapshot_batch(tree, batch, trigger_page, mats, order)
            built.append(pb)
            process_shared(pb)

        if plan is not None:
            # Replay: charge the same sequential scan, fire each cached
            # batch at its recorded trigger page so scratch writes
            # interleave with data reads exactly as in a building run.
            next_batch = 0
            for page_id, _page in data_file.scan():
                if (
                    next_batch < len(plan)
                    and plan[next_batch].trigger_page == page_id
                ):
                    process_shared(plan[next_batch])
                    next_batch += 1
            while next_batch < len(plan):
                process_shared(plan[next_batch])
                next_batch += 1
        else:
            process_batch = (
                process_batch_python if backend == "python" else process_batch_numpy
            )
            for page_id, page in data_file.scan():
                for record_id, values in page:
                    leaf = tree.insert(record_id, values)
                    batch.append((record_id, values, leaf))
                if tree.memory_bytes(NODE_BYTES, ENTRY_BYTES) >= budget_bytes:
                    process_batch(page_id)
                    tree = ALTree(order)
                    batch = []
            if batch:
                process_batch(None)
            if plan_key is not None and built:
                from repro.kernels.plancache import plan_cache

                plan_cache().put(plan_key, built)
        for w in writers:
            w.close()
        stats.intermediate_count = sum(s.num_records for s in scratches)
        stats.phase1_pruned = len(self.dataset) * len(qs) - stats.intermediate_count

        # ---- phase 2: rounds of (fill trees from all R_q, one pass) -------
        _, batch_pages = self.budget.split_for_second_phase()
        round_bytes = batch_pages * self.page_bytes
        results: list[list[int]] = [[] for _ in qs]
        positions = [0] * len(qs)  # next unread page per scratch

        # Per-query d_i(u, q_i) columns, gathered once for the whole run
        # and shared by every scanned object's traversal (python backend).
        qcols: list[list[list[float]]] | None = None
        if backend == "python":
            qcols = [
                [
                    [tables[i][u][q[i]] for u in range(len(tables[i]))]
                    for i in range(m)
                ]
                for q in qs
            ]

        while any(positions[qi] < scratches[qi].num_pages for qi in range(len(qs))):
            trees: dict[int, ALTree] = {}
            used_bytes = 0
            # Round-robin fill so every query makes progress each round.
            progressing = True
            while progressing and used_bytes < round_bytes:
                progressing = False
                for qi in range(len(qs)):
                    if positions[qi] >= scratches[qi].num_pages:
                        continue
                    t = trees.get(qi)
                    if t is None:
                        t = trees[qi] = ALTree(order)
                    before = t.memory_bytes(NODE_BYTES, ENTRY_BYTES)
                    for record_id, values in scratches[qi].read_page(positions[qi]):
                        t.insert(record_id, values)
                    positions[qi] += 1
                    used_bytes += t.memory_bytes(NODE_BYTES, ENTRY_BYTES) - before
                    progressing = True
                    if used_bytes >= round_bytes:
                        break
            stats.phase2_batches += 1
            stats.db_passes += 1
            if backend == "python":
                self._phase2_round_python(
                    data_file, trees, qs, tables, m, qcols, results, stats,
                    pqc2,
                )
            elif fused:
                self._phase2_round_fused(
                    data_file, trees, qs, mats, order, results, stats, pqc2
                )
            else:
                self._phase2_round_numpy(
                    data_file, trees, qs, mats, order, results, stats,
                    pqc2,
                )

        stats.wall_time_s = time.perf_counter() - started
        stats.io = disk.stats.snapshot()
        stats.result_count = sum(len(r) for r in results)
        return MultiQueryResult(
            queries=tuple(qs),
            results=tuple(tuple(sorted(r)) for r in results),
            stats=stats,
            per_query_checks=tuple(a + b for a, b in zip(pqc1, pqc2)),
            backend=backend,
            per_query_checks_phase1=tuple(pqc1),
            per_query_checks_phase2=tuple(pqc2),
        )

    @staticmethod
    def _phase2_round_python(
        data_file, trees, qs, tables, m, qcols, results, stats, per_query_checks
    ) -> None:
        for _, dpage in data_file.scan():
            if all(t.num_objects == 0 for t in trees.values()):
                break
            for e_id, e in dpage:
                # One gather of d_i(u, e_i) per scanned object, shared
                # across every query's traversal (hoisted out of the
                # per-query loop; built lazily so fully-drained pages
                # cost nothing).
                ecols = None
                for qi, t in trees.items():
                    if t.num_objects == 0:
                        continue
                    if ecols is None:
                        ecols = [
                            [tables[i][u][e[i]] for u in range(len(tables[i]))]
                            for i in range(m)
                        ]
                    _, checks = prune_tree_cols(t, e_id, ecols, qcols[qi])
                    stats.checks_phase2 += checks
                    per_query_checks[qi] += checks
        for qi, t in trees.items():
            results[qi].extend(rid for rid, _ in t.iter_entries())

    @staticmethod
    def _phase2_round_fused(
        data_file, trees, qs, mats, order, results, stats, per_query_checks
    ) -> None:
        """One shared pass pruning *every* member tree per page: the
        round's trees are concatenated into a forest and each scanned
        page runs one frontier descent instead of one
        :func:`page_prune` per query. Decisions, IO and the per-query
        check attribution are identical to the per-query round — see
        :mod:`repro.kernels.fused`."""
        with _obs.span("kernel.phase2", backend="numpy") as span:
            forest = fused_kernels.build_forest(
                (qi, col, query_node_rows(col, mats, order, qs[qi]))
                for qi, t in trees.items()
                for col in (ColumnarALTree.from_tree(t),)
            )
            for _, dpage in data_file.scan():
                if forest is None or forest.live_total == 0:
                    break
                e_ids = np.asarray([rid for rid, _ in dpage], dtype=np.intp)
                e_vals = np.asarray([v for _, v in dpage], dtype=np.intp)
                pq = fused_kernels.fused_page_prune(
                    forest, mats, order, e_ids, e_vals
                )
                stats.checks_phase2 += int(pq.sum())
                for j, qi in enumerate(forest.qis):
                    per_query_checks[qi] += int(pq[j])
            survivors = 0
            if forest is not None:
                for qi, ids in forest.survivors():
                    survivors += ids.size
                    results[qi].extend(int(rid) for rid in ids)
            span.annotate("survivors", survivors)

    @staticmethod
    def _phase2_round_numpy(
        data_file, trees, qs, mats, order, results, stats, per_query_checks
    ) -> None:
        with _obs.span("kernel.phase2", backend="numpy") as span:
            states: dict[int, list] = {}
            for qi, t in trees.items():
                col = ColumnarALTree.from_tree(t)
                states[qi] = [
                    col,
                    query_node_rows(col, mats, order, qs[qi]),
                    np.ones(col.entry_ids.size, dtype=bool),
                    [d.copy() for d in col.desc],
                    col.num_objects,
                ]
            for _, dpage in data_file.scan():
                if all(st[4] == 0 for st in states.values()):
                    break
                # The page's id/value arrays are built once and shared by
                # every query's kernel call.
                e_ids = np.asarray([rid for rid, _ in dpage], dtype=np.intp)
                e_vals = np.asarray([v for _, v in dpage], dtype=np.intp)
                for qi, st in states.items():
                    if st[4] == 0:
                        continue
                    col, q_rows, alive, desc_live, _ = st
                    alive, desc_live, checks = page_prune(
                        col, mats, order, q_rows, e_ids, e_vals, alive, desc_live
                    )
                    total = int(checks.sum())
                    stats.checks_phase2 += total
                    per_query_checks[qi] += total
                    st[2] = alive
                    st[3] = desc_live
                    st[4] = int(desc_live[0].sum()) if desc_live else 0
            survivors = 0
            for qi, st in states.items():
                ids = st[0].entry_ids[st[2]]
                survivors += ids.size
                results[qi].extend(int(rid) for rid in ids)
            span.annotate("survivors", survivors)
