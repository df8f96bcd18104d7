"""The per-layer metric catalogue and the arithmetic over captured spans.

Each per-layer metric names the end-to-end metric and workload it should
move; ``BENCHMARK.json`` lists the same names and units (the self-test
holds the two together). A value of ``None`` means the layer is not
measured on that workload and is printed as such; the JSON line then
carries 0.0 for it.
"""

from __future__ import annotations

import math

#: (name, unit, should move). Order is the report's order.
PER_LAYER: tuple[tuple[str, str, str], ...] = (
    ("persist.open_s", "s", "setup_s @ all"),
    ("core.prepare_s", "s", "setup_s @ all"),
    ("kernels.plan_build_s", "s", "setup_s @ all"),
    ("serve.start_s", "s", "setup_s @ serve, mixed"),
    ("engine.overhead_ms", "ms", "read_p50_ms @ point"),
    ("storage.stage_ms", "ms", "read_p50_ms @ point, mixed"),
    ("core.run_ms", "ms", "read_p50_ms @ point"),
    ("core.phase1_ms", "ms", "read_p50_ms @ mixed"),
    ("core.phase2_ms", "ms", "read_p50_ms @ mixed"),
    ("kernels.phase1_ms", "ms", "read_p50_ms, cpu_ms_per_op @ point, serve"),
    ("kernels.phase2_ms", "ms", "read_p50_ms, cpu_ms_per_op @ point, serve"),
    ("kernels.plan_cache_hit_frac", "ratio", "read_p50_ms @ mixed; ~1 @ point"),
    ("core.checks_per_read", "count", "cpu_ms_per_op @ point, mixed"),
    ("core.checks_delta_per_read", "count", "cpu_ms_per_op @ point, mixed"),
    ("core.phase1_prune_frac", "ratio", "read_p50_ms @ point"),
    ("core.phase2_yield", "ratio", "read_p50_ms @ point"),
    ("storage.seq_io_per_read", "pages", "read_p50_ms @ point"),
    ("storage.rand_io_per_read", "pages", "read_p50_ms @ point"),
    ("exec.result_cache_hit_frac", "ratio", "read_qps @ serve (expect 0.20)"),
    ("exec.planned_frac", "ratio", "read_qps @ serve"),
    ("serve.exec_ms", "ms", "read_p50_ms @ serve, mixed"),
    ("serve.overhead_ms", "ms", "read_p50_ms @ serve"),
    ("serve.coalesced_frac", "ratio", "read_qps @ serve"),
    ("serve.effective_window_ms", "ms", "read_p50_ms @ serve"),
    ("serve.shed", "count", "ok_frac @ serve, mixed"),
    ("serve.deadline", "count", "ok_frac @ serve, mixed"),
    ("maint.write_p50_ms", "ms", "read_qps @ mixed"),
    ("maint.compactions", "count", "read_qps @ mixed"),
    ("maint.compaction_ms", "ms", "read_qps @ mixed"),
    ("maint.tombstoned_read_frac", "ratio", "read_p50_ms @ mixed"),
    ("maint.delta_records_mean", "count", "read_p50_ms @ mixed"),
    ("maint.tombstones_mean", "count", "read_p50_ms @ mixed"),
    ("maint.plans_invalidated", "count", "read_p50_ms @ mixed"),
    ("read_tail_ms", "ms", "none: no bound, printed beside read_p50_ms"),
    ("trace.overhead_frac", "ratio", "none: budget <= 0.05"),
)

#: Percentiles tried for the tail, highest first.
_TAIL_PERCENTILES = (99.9, 99.5, 99.0, 98.0, 95.0, 90.0, 80.0, 75.0, 50.0)


def percentile(sorted_vals, p: float) -> float:
    """Nearest-rank percentile of an already sorted list."""
    rank = max(1, math.ceil(p / 100.0 * len(sorted_vals)))
    return sorted_vals[min(rank, len(sorted_vals)) - 1]


def tail(latencies) -> tuple[float, float, int]:
    """``(percentile, value, samples)``: the highest percentile that has
    at least ten samples beyond it (the median when there are too few)."""
    vals = sorted(latencies)
    n = len(vals)
    for p in _TAIL_PERCENTILES:
        if n * (1.0 - p / 100.0) >= 10:
            return p, percentile(vals, p), n
    return 50.0, percentile(vals, 50.0), n


def self_times(forests) -> dict[str, float]:
    """Seconds of self time per span name, summed over ``forests`` (each
    a self-contained list of span records: ids are only unique within
    one forest). Self time is a span's duration minus the part of it
    its children cover."""
    from repro.obs import phase_breakdown

    out: dict[str, float] = {}
    for records in forests:
        for row in phase_breakdown(records):
            out[row.name] = out.get(row.name, 0.0) + row.self_s
    return out


def span_metrics(forests, reads: int) -> dict[str, float | None]:
    """The span-derived per-read metrics (ms per read)."""
    if reads <= 0:
        return {}
    st = self_times(forests)

    def per_read(name):
        return st[name] * 1000.0 / reads if name in st else None

    def kernel(phase):
        # A phase that ran without kernel spans took the scalar path.
        value = per_read(f"kernel.{phase}")
        if value is None and phase in st:
            return 0.0
        return value

    return {
        # The bench span's only child is ``algorithm.run``, so its self
        # time is the engine's own share of ``engine.query``.
        "engine.overhead_ms": per_read("bench.read"),
        "storage.stage_ms": per_read("algorithm.stage"),
        "core.run_ms": per_read("algorithm.run"),
        "core.phase1_ms": per_read("phase1"),
        "core.phase2_ms": per_read("phase2"),
        "kernels.phase1_ms": kernel("phase1"),
        "kernels.phase2_ms": kernel("phase2"),
    }


def stats_metrics(stats_list) -> dict[str, float | None]:
    """Per-read cost counters from ``RSResult.stats`` (exact counts)."""
    n = len(stats_list)
    if n == 0:
        return {}
    tests = sum(s.pruner_tests for s in stats_list)
    inter = sum(s.intermediate_count for s in stats_list)
    return {
        "core.checks_per_read": sum(s.checks for s in stats_list) / n,
        "core.checks_delta_per_read": sum(s.checks_delta for s in stats_list) / n,
        "core.phase1_prune_frac": (
            sum(s.phase1_pruned for s in stats_list) / tests if tests else None
        ),
        "core.phase2_yield": (
            sum(s.result_count for s in stats_list) / inter if inter else None
        ),
        "storage.seq_io_per_read": sum(s.io.sequential for s in stats_list) / n,
        "storage.rand_io_per_read": sum(s.io.random for s in stats_list) / n,
    }
