"""Maintenance-equivalence harness: delta trees vs. rebuild-from-scratch.

The contract of :mod:`repro.maint` is a single sentence — *a maintained
engine answers every query bit-identically to an engine rebuilt from
scratch over the live records* — and this module verifies it the way
the repo verifies everything behavioural: a storm of randomized
workloads, each driven through a random interleaving of insert/delete
batches, with the maintained answer compared to the rebuild oracle
after **every** batch, across backends and execution pools.

Per trial the harness exercises, in order:

1. random mutation batches (inserts drawn from the schema's domains,
   deletes sampled from the live stable ids), with the compaction
   threshold dropped low enough that automatic compactions fire
   mid-stream;
2. a **crash mid-compaction** (via :attr:`MaintStore._crash_hook`, which
   raises after the new base is built but before it is published) —
   the store must keep answering bit-identically from the old base +
   deltas, and a subsequent clean compaction must succeed;
3. a forced clean :meth:`~repro.maint.MaintainedEngine.compact`;
4. a pooled batch run (serial / thread / process — the process pool
   exercises the delta wire-state shipping and, with shm, the delta
   segment publication) compared slot-for-slot against the oracle.

Backends may differ on check counts, never on page IO: when both the
``python`` and ``numpy`` backends run, every probe's four charged IO
counters (sequential/random reads and writes) must agree between them
at every step, or the trial fails with a ``charged IO`` label.

    report = verify_maint_equivalence(trials=25, seed=0)
    assert report.ok, report.failures[0]
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.data.dataset import Dataset
from repro.errors import ExperimentError
from repro.testing.verify import (
    VerificationFailure,
    WorkloadCase,
    random_workload,
)

__all__ = ["MaintReport", "verify_maint_equivalence"]


@dataclass
class MaintReport:
    """Outcome of one maintenance-equivalence storm."""

    trials: int = 0
    #: Mutation batches applied across all trials and backends.
    batches: int = 0
    #: Compactions observed (automatic + forced, across all stores).
    compactions: int = 0
    #: Injected mid-compaction crashes the stores recovered from.
    crash_recoveries: int = 0
    #: Individual answer comparisons against the rebuild oracle.
    checks: int = 0
    failures: list[VerificationFailure] = field(default_factory=list)
    #: Pools that could not run in this environment (never failures).
    skipped_pools: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures


def _rebuild_oracle_ids(store, query, *, page_bytes: int) -> tuple[int, ...]:
    """The ground truth: a plain engine built from scratch over the live
    records, its positional answer translated back to stable ids."""
    from repro.engine import ReverseSkylineEngine

    live = store.live_entries()
    if not live:
        return ()
    base = store.base
    dataset = Dataset(
        base.schema,
        [values for _, values in live],
        base.space,
        validate=False,
        name="maint-oracle",
    )
    oracle = ReverseSkylineEngine(
        dataset, page_bytes=page_bytes, log_queries=False
    )
    sids = [sid for sid, _ in live]
    return tuple(sorted(sids[p] for p in oracle.query(query).record_ids))


def _charged_io(result) -> tuple[int, int, int, int]:
    io = result.stats.io
    return (
        io.sequential_reads,
        io.random_reads,
        io.sequential_writes,
        io.random_writes,
    )


def verify_maint_equivalence(
    *,
    trials: int = 25,
    seed: int = 0,
    backends: tuple[str | None, ...] = ("python", "numpy"),
    pools: tuple[str, ...] = ("serial", "thread", "process"),
    batches: int = 6,
    queries_per_check: int = 3,
    crash_compaction: bool = True,
    max_failures: int = 5,
) -> MaintReport:
    """Drive ``trials`` random workloads through random update
    interleavings and assert bit-identical answers against the rebuild
    oracle after every batch (module docstring).

    Each (trial, backend) pair is an independent maintained engine with
    a low compaction threshold, so automatic compactions, the injected
    crash and the forced compaction all happen on most trials; ``pools``
    are exercised on the final state of every engine. Pools unavailable
    in the environment (sandboxes without process primitives) land in
    ``skipped_pools``, not in ``failures``.
    """
    if trials < 1:
        raise ExperimentError(f"trials must be >= 1, got {trials}")
    if batches < 1:
        raise ExperimentError(f"batches must be >= 1, got {batches}")
    if not pools or any(p not in ("serial", "thread", "process") for p in pools):
        raise ExperimentError(
            f"pools must be drawn from serial/thread/process, got {pools!r}"
        )
    from repro.maint import MaintainedEngine

    report = MaintReport()
    unavailable: set[str] = set()

    def check(
        case: WorkloadCase, engine, queries, label: str, step: str, io: dict
    ) -> bool:
        """Compare every probe query against the oracle after ``step``;
        False on miss. Records each probe's charged IO in ``io`` under
        ``(step, i)``."""
        for i, q in enumerate(queries):
            want = _rebuild_oracle_ids(
                engine.store, q, page_bytes=case.page_bytes
            )
            result = engine.query(q)
            got = tuple(result.record_ids)
            io[(step, i)] = _charged_io(result)
            report.checks += 1
            if got != want:
                report.failures.append(
                    VerificationFailure(
                        case, want, got, error=f"{label}: {step}"
                    )
                )
                return False
        return True

    for t in range(trials):
        case = random_workload(seed + t)
        report.trials += 1
        cards = case.dataset.schema.cardinalities()
        io_by_backend: dict[str | None, dict] = {}
        for backend in backends:
            rng = np.random.default_rng((seed + t) * 7919 + 11)
            probes = [case.query] + [
                tuple(int(rng.integers(0, c)) for c in cards)
                for _ in range(max(0, queries_per_check - 1))
            ]
            label = f"backend={backend}"
            try:
                engine = MaintainedEngine(
                    case.dataset,
                    backend=backend,
                    page_bytes=case.page_bytes,
                    log_queries=False,
                    compact_min=int(rng.integers(4, 13)),
                    compact_fraction=0.3,
                )
            except Exception as exc:  # noqa: BLE001 - the point is to report it
                report.failures.append(
                    VerificationFailure(
                        case, (), None, error=f"{label}: engine build {exc!r}"
                    )
                )
                continue
            store = engine.store
            io = io_by_backend[backend] = {}
            ok = True
            for b in range(batches):
                inserts = [
                    tuple(int(rng.integers(0, c)) for c in cards)
                    for _ in range(int(rng.integers(0, 5)))
                ]
                live = [sid for sid, _ in store.live_entries()]
                k = min(len(live), int(rng.integers(0, 4)))
                deletes = (
                    [live[i] for i in rng.choice(len(live), size=k, replace=False)]
                    if k
                    else []
                )
                try:
                    engine.apply_updates(inserts=inserts, deletes=deletes)
                except Exception as exc:  # noqa: BLE001
                    report.failures.append(
                        VerificationFailure(
                            case, (), None,
                            error=f"{label}: batch {b} apply {exc!r}",
                        )
                    )
                    ok = False
                    break
                report.batches += 1
                step = f"after batch {b}"
                if not check(case, engine, probes, label, step, io):
                    ok = False
                    break
            if not ok or len(report.failures) >= max_failures:
                if len(report.failures) >= max_failures:
                    return report
                continue
            if (
                crash_compaction
                and store.delta_records + store.tombstone_count > 0
            ):
                # Crash after the new base is built, before it publishes:
                # the store must stay on the old epoch and keep answering.
                def _boom() -> None:
                    raise RuntimeError("injected crash mid-compaction")

                store._crash_hook = _boom
                crashed = False
                try:
                    engine.compact()
                except RuntimeError:
                    crashed = True
                finally:
                    store._crash_hook = None
                if not crashed:
                    report.failures.append(
                        VerificationFailure(
                            case, (), None,
                            error=f"{label}: crash hook never fired",
                        )
                    )
                    continue
                report.crash_recoveries += 1
                if not check(case, engine, probes, label, "post-crash", io):
                    continue
            try:
                engine.compact()
            except Exception as exc:  # noqa: BLE001
                report.failures.append(
                    VerificationFailure(
                        case, (), None, error=f"{label}: compact {exc!r}"
                    )
                )
                continue
            report.compactions += store.compactions
            if not check(case, engine, probes, label, "post-compaction", io):
                continue
            expected = [
                _rebuild_oracle_ids(store, q, page_bytes=case.page_bytes)
                for q in probes
            ]
            for pool in pools:
                if pool in unavailable:
                    continue
                pool_label = f"{label}, pool={pool}"
                try:
                    batch = engine.query_many(
                        probes,
                        pool=pool,
                        workers=2,
                        cache=False,
                        shm=(pool == "process"),
                    )
                    got = [tuple(r.record_ids) for r in batch.results]
                except (OSError, PermissionError) as exc:
                    unavailable.add(pool)
                    report.skipped_pools.append(f"{pool}: {exc}")
                    continue
                except Exception as exc:  # noqa: BLE001
                    report.failures.append(
                        VerificationFailure(
                            case, (), None, error=f"{pool_label}: {exc!r}"
                        )
                    )
                    continue
                for want, have in zip(expected, got):
                    report.checks += 1
                    if want != have:
                        report.failures.append(
                            VerificationFailure(
                                case, want, have,
                                error=f"{pool_label}: pooled result diverged",
                            )
                        )
                        break
            if len(report.failures) >= max_failures:
                return report
        want_io = io_by_backend.get("python")
        got_io = io_by_backend.get("numpy")
        if want_io and got_io:
            for key, want in want_io.items():
                have = got_io.get(key)
                if have is not None and have != want:
                    step, i = key
                    report.failures.append(
                        VerificationFailure(
                            case, want, have,
                            error=(
                                f"charged IO: backend=numpy {have} != "
                                f"backend=python {want} ({step}, probe {i})"
                            ),
                        )
                    )
                    break
            if len(report.failures) >= max_failures:
                return report
    return report
