"""Incremental maintenance benchmark — the ``repro.maint`` CI gate.

Two claims, measured wall-clock against the only alternative the rest of
the repo offers (rebuild the engine whenever the data changes) and
written to ``BENCH_maint.json`` at the repository root:

- **Maintained beats rebuild-per-batch.**  On a 90% read / 10% insert
  mixed workload, a :class:`~repro.maint.MaintainedEngine` absorbing
  each write into its delta overlay must finish the whole op sequence at
  least ``MIN_THROUGHPUT_RATIO``x faster than re-preparing a fresh
  engine after every write.  Both strategies answer every read; their
  answer sequences are asserted identical before the ratio counts.
  The gate compares each side's *best* of ``REPS`` interleaved
  repetitions: the op sequence is deterministic, so any excess over a
  run's minimum is scheduler/frequency interference, which best-of-k
  strips symmetrically (per-rep ratios are recorded alongside).  The
  process-wide plan cache is reset before every run so neither strategy
  inherits the other's plans (real update sequences never repeat, so a
  cross-run warm cache would flatter the rebuild side).
- **Updates keep the plan cache warm.**  Across a non-compacting update
  batch the engine must retain at least ``MIN_PLAN_RETENTION`` of the
  plan-cache entries its reads had built — surgical invalidation drops
  plans only when a compaction actually rewrites the base they were
  built from.
- **Deletes stay vectorised.**  Epochs that carry tombstones (each
  update deletes ``DELETE_BATCH`` and inserts as many records, then
  ``READS_PER_EPOCH`` fresh reads follow) must read at least
  ``MIN_TOMBSTONED_SPEEDUP``x faster on the numpy backend (VectorTRS,
  which rebuilds its phase-1 plan once per epoch) than on the python
  backend (TRS). The numpy time includes each epoch's plan-building
  first read; answers are asserted identical first, and each side
  keeps its best of ``REPS`` interleaved repetitions.

Everything here is deterministic except the clock: the op sequence, the
queries, and both strategies' answers are pure functions of the seeds.
"""

from __future__ import annotations

import json
import pathlib
import platform
import random
import statistics
import time

from repro.data.synthetic import synthetic_dataset
from repro.engine import ReverseSkylineEngine
from repro.experiments.tables import format_table
from repro.experiments.workloads import scale_factor, scaled
from repro.kernels import plancache
from repro.maint import MaintainedEngine

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
BENCH_PATH = REPO_ROOT / "BENCH_maint.json"

#: Throughput gate: rebuild-per-batch wall time over maintained wall time.
MIN_THROUGHPUT_RATIO = 3.0
#: Plan-cache gate: share of entries surviving a non-compacting batch.
MIN_PLAN_RETENTION = 0.5
#: Tombstoned-read gate: python-backend read time over numpy's.
MIN_TOMBSTONED_SPEEDUP = 2.0

CARDS = [12, 10, 8]
NUM_QUERIES = 40
OPS = 200  # 10% of these are single-record inserts
REPS = 4
DELETE_BATCH = 256  # deletes (and as many inserts) per tombstoned epoch
READS_PER_EPOCH = 9
TOMBSTONED_EPOCHS = 3
TOMBSTONED_REPS = 3


def _workload(n: int, seed: int = 21):
    ds = synthetic_dataset(n, CARDS, seed=seed)
    rng = random.Random(7)

    def rec():
        return tuple(rng.randrange(c) for c in CARDS)

    queries = [rec() for _ in range(NUM_QUERIES)]
    ops = []
    qi = 0
    for i in range(OPS):
        if i % 10 == 5:
            ops.append(("insert", rec()))
        else:
            ops.append(("read", queries[qi % NUM_QUERIES]))
            qi += 1
    return ds, ops


def _run_maintained(ds, ops):
    eng = MaintainedEngine(ds, backend="numpy", log_queries=False)
    answers = []
    t0 = time.perf_counter()
    for kind, payload in ops:
        if kind == "insert":
            eng.apply_updates(inserts=[payload])
        else:
            answers.append(eng.query(payload).record_ids)
    return time.perf_counter() - t0, answers


def _run_rebuild(ds, ops):
    records = list(ds.records)
    cur = ds
    eng = ReverseSkylineEngine(cur, backend="numpy", log_queries=False)
    answers = []
    t0 = time.perf_counter()
    for kind, payload in ops:
        if kind == "insert":
            records = records + [payload]
            cur = cur.with_records(records)
            eng = ReverseSkylineEngine(cur, backend="numpy", log_queries=False)
        else:
            answers.append(eng.query(payload).record_ids)
    return time.perf_counter() - t0, answers


def _tombstoned_epochs(ds, seed: int = 31):
    """Update batches (stable ids to delete, records to insert) and the
    fresh reads that follow each one. Stable ids are assigned in insert
    order, so both backends' stores see the same ids."""
    rng = random.Random(seed)
    n = len(ds)

    def rec():
        return tuple(rng.randrange(c) for c in CARDS)

    live = list(range(n))
    next_id = n
    epochs = []
    for _ in range(TOMBSTONED_EPOCHS):
        deletes = rng.sample(live, DELETE_BATCH)
        gone = set(deletes)
        live = [sid for sid in live if sid not in gone]
        inserts = [rec() for _ in range(DELETE_BATCH)]
        live.extend(range(next_id, next_id + DELETE_BATCH))
        next_id += DELETE_BATCH
        epochs.append((deletes, inserts, [rec() for _ in range(READS_PER_EPOCH)]))
    return epochs


def _run_tombstoned(ds, epochs, backend):
    """Read time summed over every tombstoned epoch (updates untimed)."""
    eng = MaintainedEngine(
        ds, backend=backend, compact_min=10**9, log_queries=False
    )
    answers = []
    read_s = 0.0
    for deletes, inserts, reads in epochs:
        eng.apply_updates(inserts=inserts, deletes=deletes)
        assert eng.store.tombstone_count > 0
        t0 = time.perf_counter()
        for q in reads:
            answers.append(eng.query(q).record_ids)
        read_s += time.perf_counter() - t0
    return read_s, answers


def test_bench_maint_gates(emit):
    n = scaled(10000)
    ds, ops = _workload(n)
    reads = sum(1 for kind, _ in ops if kind == "read")
    writes = OPS - reads

    # -- throughput: maintained vs rebuild-per-batch ------------------------
    reps = []
    for _rep in range(REPS):
        plancache.configure(plancache.DEFAULT_CAPACITY_BYTES)
        maint_s, maint_answers = _run_maintained(ds, ops)
        plancache.configure(plancache.DEFAULT_CAPACITY_BYTES)
        rebuild_s, rebuild_answers = _run_rebuild(ds, ops)
        # Identical answer sequences, or the ratio means nothing.
        assert maint_answers == rebuild_answers
        reps.append({
            "maintained_s": maint_s,
            "rebuild_s": rebuild_s,
            "ratio": rebuild_s / maint_s,
        })
    best_maint = min(r["maintained_s"] for r in reps)
    best_rebuild = min(r["rebuild_s"] for r in reps)
    ratio = best_rebuild / best_maint
    median_ratio = statistics.median(r["ratio"] for r in reps)

    # -- plan-cache retention across a non-compacting batch -----------------
    plancache.configure(plancache.DEFAULT_CAPACITY_BYTES)
    eng = MaintainedEngine(
        ds, backend="numpy", compact_min=10_000, log_queries=False
    )
    rng = random.Random(99)
    probe = tuple(rng.randrange(c) for c in CARDS)
    eng.query(probe)
    entries_before = plancache.plan_cache().stats().entries
    assert entries_before > 0
    eng.apply_updates(
        inserts=[tuple(rng.randrange(c) for c in CARDS) for _ in range(5)]
    )
    eng.query(probe)
    entries_after = plancache.plan_cache().stats().entries
    invalidated = eng.plans_invalidated_total
    retention = (entries_before - invalidated) / entries_before

    # -- tombstoned epochs: VectorTRS vs TRS reads -------------------------
    epochs = _tombstoned_epochs(ds)
    tomb_reps = []
    for _rep in range(TOMBSTONED_REPS):
        plancache.configure(plancache.DEFAULT_CAPACITY_BYTES)
        vec_s, vec_answers = _run_tombstoned(ds, epochs, "numpy")
        plancache.configure(plancache.DEFAULT_CAPACITY_BYTES)
        trs_s, trs_answers = _run_tombstoned(ds, epochs, "python")
        assert vec_answers == trs_answers
        tomb_reps.append({"numpy_s": vec_s, "python_s": trs_s})
    tomb_reads = TOMBSTONED_EPOCHS * READS_PER_EPOCH
    best_vec = min(r["numpy_s"] for r in tomb_reps)
    best_trs = min(r["python_s"] for r in tomb_reps)
    tomb_speedup = best_trs / best_vec

    doc = {
        "workload": {
            "model": f"normal synthetic, cards {CARDS}, {OPS} ops "
                     f"({reads} reads over {NUM_QUERIES} distinct queries, "
                     f"{writes} single-record inserts), backend numpy",
            "records": n,
            "repro_scale": scale_factor(),
            "reps": REPS,
        },
        "environment": {
            "python": platform.python_version(),
            "platform": platform.platform(),
        },
        "gate": {
            "min_throughput_ratio": MIN_THROUGHPUT_RATIO,
            "min_plan_retention": MIN_PLAN_RETENTION,
            "min_tombstoned_read_speedup": MIN_TOMBSTONED_SPEEDUP,
        },
        "throughput": {
            "reps": reps,
            "best_maintained_s": best_maint,
            "best_rebuild_s": best_rebuild,
            "best_ratio": ratio,
            "median_ratio": median_ratio,
        },
        "plan_cache": {
            "entries_before": entries_before,
            "entries_after": entries_after,
            "invalidated": invalidated,
            "retention": retention,
        },
        "tombstoned_reads": {
            "model": f"{TOMBSTONED_EPOCHS} epochs, each after an update of "
                     f"{DELETE_BATCH} deletes + {DELETE_BATCH} inserts "
                     "(no compaction), then "
                     f"{READS_PER_EPOCH} fresh reads; numpy = VectorTRS "
                     "incl. each epoch's plan-building first read, "
                     "python = TRS",
            "reads": tomb_reads,
            "reps": tomb_reps,
            "best_numpy_ms_per_read": 1000 * best_vec / tomb_reads,
            "best_python_ms_per_read": 1000 * best_trs / tomb_reads,
            "speedup": tomb_speedup,
        },
    }
    BENCH_PATH.write_text(json.dumps(doc, indent=2) + "\n")

    rep_rows = [
        [
            str(i),
            f"{r['maintained_s']:.3f}",
            f"{r['rebuild_s']:.3f}",
            f"{r['ratio']:.2f}x",
        ]
        for i, r in enumerate(reps)
    ]
    emit(
        "bench_maint",
        "Incremental maintenance: delta overlays vs rebuild-per-batch",
        format_table(["rep", "maintained s", "rebuild s", "ratio"], rep_rows)
        + f"\n\nbest-of-{REPS} ratio {ratio:.2f}x "
        + f"(median {median_ratio:.2f}x, gate {MIN_THROUGHPUT_RATIO}x); "
        + f"plan-cache retention {retention:.2f} "
        + f"({invalidated} of {entries_before} entries invalidated, "
        + f"gate {MIN_PLAN_RETENTION})"
        + f"\ntombstoned reads: numpy {1000 * best_vec / tomb_reads:.1f} ms "
        + f"vs python {1000 * best_trs / tomb_reads:.1f} ms per read, "
        + f"{tomb_speedup:.2f}x (gate {MIN_TOMBSTONED_SPEEDUP}x)"
        + f"\n(canonical artifact: {BENCH_PATH.name})",
    )

    assert ratio >= MIN_THROUGHPUT_RATIO, (
        f"maintained engine only {ratio:.2f}x faster than rebuild-per-batch "
        f"(gate {MIN_THROUGHPUT_RATIO}x)"
    )
    assert retention >= MIN_PLAN_RETENTION, (
        f"update batch kept only {retention:.2f} of plan-cache entries "
        f"(gate {MIN_PLAN_RETENTION})"
    )
    assert tomb_speedup >= MIN_TOMBSTONED_SPEEDUP, (
        f"tombstoned-epoch reads only {tomb_speedup:.2f}x faster on numpy "
        f"than python (gate {MIN_TOMBSTONED_SPEEDUP}x)"
    )
    assert entries_after >= entries_before, (
        "a non-compacting update batch dropped plan-cache entries: "
        f"{entries_before} -> {entries_after}"
    )
