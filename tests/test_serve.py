"""Closed-loop tests for the resident query service (repro.serve).

Every test drives the real stack — a background server on its own
event loop, real sockets, the real protocol — because the service's
contracts are about behaviour *under concurrency*: deadlines cancel
work that has not run yet, sheds carry honest retry-after hints,
token buckets isolate tenants, the micro-batcher coalesces strangers'
queries into shared scans, and a SIGKILLed pool worker costs one
rebuild, never a hang or a wrong answer.
"""

import asyncio
import glob
import os
import signal
import time

import pytest

from repro.data.synthetic import synthetic_dataset
from repro.engine import ReverseSkylineEngine
from repro.errors import OverloadError
from repro.serve import (
    ServeClient,
    ServiceConfig,
    run_closed_loop,
    serve_in_background,
)
from repro.serve.admission import AdmissionController, TokenBucket
from repro.serve.protocol import BadRequest, decode_request, error_response


def _engine(n=200, values=(5, 5, 4), seed=3, **kw):
    ds = synthetic_dataset(n, list(values), seed=seed)
    kw.setdefault("log_queries", False)
    return ReverseSkylineEngine(ds, algorithm="TRS", **kw)


@pytest.fixture
def server_factory():
    """Start background servers; always stop them and audit /dev/shm."""
    handles = []

    def start(engine, config):
        handle = serve_in_background(engine, config)
        handles.append(handle)
        return handle

    yield start
    for handle in handles:
        handle.stop()
    assert not glob.glob("/dev/shm/repro-shm-*")


# -- protocol ----------------------------------------------------------------


class TestProtocol:
    def test_query_roundtrip_fields(self):
        req = decode_request(
            b'{"op": "query", "query": [1, 2], "tenant": "t9", '
            b'"deadline_ms": 40, "id": "r1"}'
        )
        assert req.query == (1, 2)
        assert req.tenant == "t9"
        assert req.deadline_ms == 40.0
        assert req.request_id == "r1"
        assert req.kind == "query"

    @pytest.mark.parametrize(
        "line",
        [
            b"not json",
            b"[1, 2]",
            b'{"op": "nope"}',
            b'{"op": "query"}',
            b'{"op": "query", "query": []}',
            b'{"op": "query", "query": [1], "kind": "wat"}',
            b'{"op": "query", "query": [1], "k": 0}',
            b'{"op": "query", "query": [1], "k": 2}',
            b'{"op": "query", "query": [1], "kind": "subset"}',
            b'{"op": "query", "query": [1], "deadline_ms": -5}',
        ],
    )
    def test_malformed_lines_are_bad_requests(self, line):
        with pytest.raises(BadRequest):
            decode_request(line)

    def test_error_mapping_carries_retry_after(self):
        exc = OverloadError("full", retry_after_s=0.25, reason="queue-full")
        err = error_response("id7", exc)["error"]
        assert err["type"] == "overload"
        assert err["reason"] == "queue-full"
        assert err["retry_after_s"] == 0.25


# -- admission ---------------------------------------------------------------


class TestAdmission:
    def test_token_bucket_refills_at_rate(self):
        now = [0.0]
        bucket = TokenBucket(rate=2.0, burst=2.0, clock=lambda: now[0])
        assert bucket.try_acquire() == 0.0
        assert bucket.try_acquire() == 0.0
        wait = bucket.try_acquire()
        assert wait == pytest.approx(0.5)  # 1 token at 2/s
        now[0] += 0.5
        assert bucket.try_acquire() == 0.0

    def test_tenant_buckets_are_independent(self):
        now = [0.0]
        ctl = AdmissionController(
            queue_depth=10, workers=1, tenant_rate=1.0, tenant_burst=1.0,
            clock=lambda: now[0],
        )
        ctl.admit("a", 0)
        with pytest.raises(OverloadError) as info:
            ctl.admit("a", 0)
        assert info.value.reason == "tenant-throttled"
        assert info.value.retry_after_s > 0
        ctl.admit("b", 0)  # unaffected by a's exhaustion

    def test_queue_full_retry_after_scales_with_backlog(self):
        ctl = AdmissionController(queue_depth=4, workers=2)
        ctl.observe_service_time(0.1)
        with pytest.raises(OverloadError) as info:
            ctl.admit("t", 4)
        assert info.value.reason == "queue-full"
        assert info.value.retry_after_s >= ctl.retry_after(0) / 2
        assert ctl.shed_by_reason == {"queue-full": 1}

    def test_disabled_rate_allocates_no_buckets(self):
        """Regression: with tenant_rate<=0 (the default) the buckets are
        pure no-ops, so wire-supplied tenant strings must not grow the
        bucket map — an adversarial client sending a fresh tenant per
        request would otherwise leak memory in a long-lived server."""
        ctl = AdmissionController(queue_depth=8, workers=1)  # rate 0
        for i in range(500):
            ctl.admit(f"tenant-{i}", 0)
        assert ctl._buckets == {}

    def test_bucket_map_is_bounded_lru(self, monkeypatch):
        from repro.serve import admission as _adm

        monkeypatch.setattr(_adm, "_MAX_TENANT_BUCKETS", 4)
        ctl = AdmissionController(
            queue_depth=8, workers=1, tenant_rate=100.0, tenant_burst=100.0
        )
        for i in range(10):
            ctl.admit(f"t{i}", 0)
        assert len(ctl._buckets) == 4
        # Least-recently-seen tenants were evicted, the newest survive.
        assert set(ctl._buckets) == {"t6", "t7", "t8", "t9"}
        ctl.admit("t6", 0)  # touch: t6 becomes most-recently-used...
        ctl.admit("t99", 0)  # ...so the eviction victim is t7, not t6
        assert "t6" in ctl._buckets and "t7" not in ctl._buckets


# -- service behaviour over real sockets -------------------------------------


class TestServiceRoundTrip:
    def test_query_ping_stats_and_cache(self, server_factory):
        engine = _engine()
        handle = server_factory(
            engine, ServiceConfig(pool="thread", workers=2)
        )
        want = list(_engine().query((0, 0, 0)).record_ids)
        with ServeClient("127.0.0.1", handle.port) as client:
            assert client.ping()
            first = client.query((0, 0, 0))
            assert first["ok"] and first["records"] == want
            again = client.query((0, 0, 0))
            assert again["cached"] and again["records"] == want
            stats = client.stats()
            assert stats["admitted"] == 2
            assert stats["cache_hits"] == 1
            kernels = stats["kernels"]
            assert kernels["fused_groups_run"] >= 0
            # No engine backend: groups run ``auto``, which is numpy on
            # this all-categorical dataset.
            assert kernels["tier"] == "numpy"

    def test_bad_query_is_typed_and_connection_survives(self, server_factory):
        handle = server_factory(_engine(), ServiceConfig(pool="thread"))
        with ServeClient("127.0.0.1", handle.port) as client:
            resp = client.query((0, 0))  # wrong arity for the schema
            assert not resp["ok"]
            assert resp["error"]["type"] == "bad-request"
            resp = client.query((99, 0, 0))  # out-of-domain label
            assert not resp["ok"]
            assert resp["error"]["type"] == "bad-request"
            assert client.query((0, 0, 0))["ok"]  # still serving

    def test_deadline_cancellation_stops_work(self, server_factory):
        """A request whose deadline expires while queued is never
        executed: the client gets a typed deadline error and the
        engine's query log stays empty."""
        engine = _engine(log_queries=True)
        handle = server_factory(
            engine,
            # Window far longer than the deadline: the request *will*
            # still be queued when its budget runs out. Adaptivity is
            # pinned off — it would collapse the window for a lone
            # client, which is exactly what this test must not have.
            ServiceConfig(
                pool="thread",
                batch_window_s=0.3,
                cache=False,
                adaptive_window=False,
            ),
        )
        with ServeClient("127.0.0.1", handle.port) as client:
            resp = client.query((0, 0, 0), deadline_ms=30)
            assert not resp["ok"]
            assert resp["error"]["type"] == "deadline"
            assert resp["error"]["stage"] in ("queue", "dispatch", "execute")
        # Allow the still-open window to close, then prove nothing ran.
        time.sleep(0.4)
        svc = handle.service
        assert svc.stats.served == 0
        assert engine.latency_summary()["count"] == 0.0

    def test_saturation_sheds_with_retry_after(self, server_factory):
        handle = server_factory(
            _engine(400, (6, 6, 5), seed=5),
            ServiceConfig(
                pool="thread",
                workers=1,
                queue_depth=2,
                batch_window_s=0.05,
                cache=False,
            ),
        )
        queries = [(i % 6, (i // 6) % 6, i % 5) for i in range(48)]
        report = run_closed_loop(
            "127.0.0.1", handle.port, queries, clients=8, requests_per_client=6
        )
        assert report.ok > 0
        assert report.shed > 0, "saturated service must shed, not queue"
        assert all(r > 0 for r in report.retry_after_s)
        assert report.failed == 0

    def test_token_buckets_isolate_tenants(self, server_factory):
        handle = server_factory(
            _engine(),
            ServiceConfig(
                pool="thread", tenant_rate=0.5, tenant_burst=2.0
            ),
        )
        with ServeClient("127.0.0.1", handle.port) as client:
            # Tenant a burns its burst of 2, then gets throttled...
            outcomes = [
                client.query((0, 0, 0), tenant="a") for _ in range(4)
            ]
            throttled = [r for r in outcomes if not r["ok"]]
            assert len(throttled) == 2
            assert all(
                r["error"]["reason"] == "tenant-throttled" for r in throttled
            )
            assert all(r["error"]["retry_after_s"] > 0 for r in throttled)
            # ...while tenant b is untouched by a's exhaustion.
            assert client.query((0, 0, 0), tenant="b")["ok"]

    def test_microbatcher_coalesces_concurrent_strangers(self, server_factory):
        """Distinct queries from concurrent clients (cache off) must be
        answered through shared scans — the planner group path."""
        handle = server_factory(
            _engine(300),
            ServiceConfig(
                pool="thread", workers=2, batch_window_s=0.01, cache=False
            ),
        )
        queries = [(i % 5, (i // 5) % 5, i % 4) for i in range(40)]
        report = run_closed_loop(
            "127.0.0.1", handle.port, queries, clients=4, requests_per_client=8
        )
        assert report.ok == 32
        assert report.planned > 0
        batcher = handle.service._batcher.stats
        assert batcher.coalesced >= 2
        assert max(batcher.group_sizes, default=0) >= 2

    def test_process_pool_counts_fused_groups(self, server_factory):
        """Fused groups run inside pool workers; the service must still
        count them, from the outcomes that come back planned."""
        handle = server_factory(
            _engine(300),
            ServiceConfig(
                pool="process", workers=2, batch_window_s=0.01, cache=False
            ),
        )
        queries = [(i % 5, (i // 5) % 5, i % 4) for i in range(40)]
        report = run_closed_loop(
            "127.0.0.1", handle.port, queries, clients=4, requests_per_client=8
        )
        assert report.ok == 32
        assert handle.service._batcher.stats.coalesced >= 2
        with ServeClient("127.0.0.1", handle.port) as client:
            kernels = client.stats()["kernels"]
        assert kernels["fused_groups_run"] >= 1
        assert kernels["tier"] == "numpy"

    def test_process_pool_worker_metrics_are_merged(self, server_factory):
        """Counters a pool worker records reach the service's registry:
        a coalesced burst reads one ``repro_kernel_fused_groups_total``
        per fused group wire under a process pool, as under a thread
        pool. (How many wires coalesce depends on arrival timing, so
        each run is checked against its own group count.)"""
        from repro.obs import hooks
        from repro.obs.metrics import series_name

        key = series_name("repro_kernel_fused_groups_total", {"tier": "numpy"})
        queries = [(i % 5, (i // 5) % 5, i % 4) for i in range(40)]
        was = hooks.is_enabled()
        readings = {}
        try:
            for pool in ("thread", "process"):
                hooks.enable(reset_state=True)
                handle = server_factory(
                    _engine(300),
                    ServiceConfig(
                        pool=pool, workers=2, batch_window_s=0.01, cache=False
                    ),
                )
                report = run_closed_loop(
                    "127.0.0.1", handle.port, queries,
                    clients=4, requests_per_client=8,
                )
                assert report.ok == 32
                handle.stop()
                readings[pool] = (
                    hooks.snapshot().counters.get(key, 0),
                    handle.service.stats.fused_groups,
                )
        finally:
            hooks.reset()
            if not was:
                hooks.disable()
        for pool, (counted, groups) in readings.items():
            assert groups >= 1, pool
            assert counted == groups, f"pool={pool}: {counted} != {groups}"

    def test_grouped_answers_match_sequential_engine(self, server_factory):
        """Coalescing must never change answers: everything served under
        concurrency equals the sequential engine's result."""
        handle = server_factory(
            _engine(250),
            ServiceConfig(
                pool="thread", workers=2, batch_window_s=0.02, cache=False
            ),
        )
        queries = [(i % 5, (i // 5) % 5, i % 4) for i in range(24)]
        oracle = _engine(250)
        want = {q: list(oracle.query(q).record_ids) for q in queries}

        import threading

        got: dict = {}
        errors: list = []

        def drive(offset: int) -> None:
            try:
                with ServeClient("127.0.0.1", handle.port) as client:
                    for i in range(offset, len(queries), 4):
                        q = queries[i]
                        resp = client.query(q)
                        assert resp["ok"], resp
                        got[q] = resp["records"]
            except Exception as exc:  # pragma: no cover - fail path
                errors.append(exc)

        threads = [
            threading.Thread(target=drive, args=(c,)) for c in range(4)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        assert got == want


class TestAdaptiveWindow:
    """The micro-batch window must cost a lone client nothing."""

    def test_effective_window_tracks_arrival_rate(self):
        from repro.serve.batcher import MicroBatcher, PendingQuery

        now = [0.0]
        batcher = MicroBatcher(
            window_s=0.01,
            max_batch=8,
            group_key=lambda s: None,
            dispatch=lambda w, m: None,
            clock=lambda: now[0],
            adaptive=True,
        )

        def arrive():
            batcher.put(
                PendingQuery(spec=None, future=_DummyFuture(), deadline=None)
            )

        # No rate estimate yet: assume sparse, window collapsed.
        assert batcher.effective_window() == 0.0
        arrive()
        assert batcher.effective_window() == 0.0
        # Sparse traffic (1 req/s >> 10ms window): stays collapsed.
        for _ in range(4):
            now[0] += 1.0
            arrive()
        assert batcher.effective_window() == 0.0
        # A sustained burst (1ms gaps) pulls the EWMA under the window,
        # and once a round actually coalesces the full window is back.
        for _ in range(30):
            now[0] += 0.001
            arrive()
        assert batcher.effective_window() == 0.0  # no multi-round yet
        batcher._last_round_size = 2
        assert batcher.effective_window() == 0.01
        # Singleton rounds (a lone client) collapse it regardless of the
        # small gaps its fast responses produce.
        batcher._last_round_size = 1
        assert batcher.effective_window() == 0.0
        # Traffic goes sparse again: collapsed even with coalescing rounds.
        batcher._last_round_size = 4
        for _ in range(16):
            now[0] += 1.0
            arrive()
        assert batcher.effective_window() == 0.0

    def test_fixed_mode_keeps_the_window(self):
        from repro.serve.batcher import MicroBatcher

        batcher = MicroBatcher(
            window_s=0.01,
            max_batch=8,
            group_key=lambda s: None,
            dispatch=lambda w, m: None,
            clock=lambda: 0.0,
            adaptive=False,
        )
        assert batcher.effective_window() == 0.01

    def test_single_client_p50_beats_the_window(self, server_factory):
        """Regression: a lone client's median latency must come in well
        under the configured window — adaptivity removes the window tax
        the fixed batcher charged every sequential request."""
        window_s = 0.08
        handle = server_factory(
            _engine(60, (4, 4, 3)),
            ServiceConfig(
                pool="thread",
                workers=1,
                batch_window_s=window_s,
                cache=False,
            ),
        )
        walls = []
        with ServeClient("127.0.0.1", handle.port) as client:
            for i in range(9):
                t0 = time.monotonic()
                resp = client.query((i % 4, i % 4, i % 3))
                walls.append(time.monotonic() - t0)
                assert resp["ok"], resp
        p50 = sorted(walls)[len(walls) // 2]
        assert p50 < window_s / 2, (
            f"single-client p50 {p50 * 1000:.1f}ms should beat the "
            f"{window_s * 1000:.0f}ms window"
        )
        assert handle.service._batcher.stats.short_windows > 0


class _DummyFuture:
    """Just enough of a Future for batcher ingest in a loop-free test."""

    def done(self) -> bool:
        return False


class TestFailureSettlement:
    def test_internal_failure_settles_futures_with_typed_error(
        self, server_factory
    ):
        """Regression: a non-ReproError escaping the pool path (second
        BrokenProcessPool on the retry, a rebuild that could not respawn
        workers) used to escape the dispatch task without settling the
        member futures — a client with no deadline hung forever. It must
        surface as a typed query-error instead."""
        handle = server_factory(_engine(), ServiceConfig(pool="thread"))
        svc = handle.service

        async def explode(wire):
            raise RuntimeError("simulated pool loss past recovery")

        async def patch():
            svc._run_wire = explode

        handle.call(patch)
        with ServeClient("127.0.0.1", handle.port, timeout_s=10) as client:
            resp = client.query((0, 0, 0))  # no deadline: would hang before
            assert not resp["ok"]
            assert resp["error"]["type"] == "query-error"
            assert "simulated pool loss" in resp["error"]["message"]
        assert svc.stats.failed == 1

    def test_concurrent_broken_pool_rebuilds_exactly_once(self):
        """Regression: one dead worker fails every in-flight payload with
        BrokenProcessPool, so several tasks race into the rebuild path;
        only the first may rebuild — a second rebuild would tear down the
        freshly built (healthy) pool mid-verification."""
        from repro.serve.service import QueryService

        svc = QueryService(_engine(), ServiceConfig(pool="process", workers=1))
        rebuilds = []

        def fake_rebuild():
            rebuilds.append(1)
            svc._pool = object()  # "a fresh healthy pool"

        svc._rebuild_pool = fake_rebuild
        svc._pool = object()  # the broken pool every task saw

        async def storm():
            await asyncio.gather(*(svc._ensure_pool(0) for _ in range(6)))

        asyncio.run(storm())
        assert rebuilds == [1]
        assert svc.stats.pool_rebuilds == 1
        assert svc._pool_epoch == 1

    def test_closed_loop_raises_on_dead_server_instead_of_hanging(self):
        """Regression: a client thread failing before the start barrier
        (connection refused) left the main thread parked on an untimed
        barrier.wait() forever."""
        import socket

        with socket.socket() as s:  # grab a port nothing listens on
            s.bind(("127.0.0.1", 0))
            port = s.getsockname()[1]
        t0 = time.monotonic()
        with pytest.raises(OSError):
            run_closed_loop(
                "127.0.0.1",
                port,
                [(0, 0, 0)],
                clients=3,
                requests_per_client=1,
                start_timeout_s=5.0,
            )
        assert time.monotonic() - t0 < 5.0


class TestProcessPoolChaos:
    def test_killed_worker_rebuilds_and_answers_identically(
        self, server_factory
    ):
        """SIGKILL a pool worker mid-service: the affected request is
        retried on a rebuilt pool and every answer stays bit-identical
        to the sequential engine — never a hang, never a wrong answer."""
        engine = _engine()
        handle = server_factory(
            engine,
            ServiceConfig(pool="process", workers=2, batch_window_s=0.005),
        )
        svc = handle.service
        oracle = _engine()
        with ServeClient("127.0.0.1", handle.port) as client:
            baseline = client.query((0, 0, 0))
            assert baseline["ok"]
            pids = svc.worker_pids()
            assert len(pids) >= 1
            os.kill(pids[0], signal.SIGKILL)
            time.sleep(0.05)
            resp = client.query((1, 1, 1))
            # Either the structured-retry succeeded (the strong outcome)
            # or the failure is typed — the forbidden outcomes are a hang
            # (the request timeout would trip) and a wrong answer.
            assert resp["ok"], resp
            assert resp["records"] == list(oracle.query((1, 1, 1)).record_ids)
            assert svc.stats.pool_rebuilds == 1
            again = client.query((2, 0, 1))
            assert again["ok"]
            assert again["records"] == list(oracle.query((2, 0, 1)).record_ids)

    def test_shm_manifest_released_on_stop(self):
        engine = _engine()
        handle = serve_in_background(
            engine, ServiceConfig(pool="process", workers=1)
        )
        try:
            with ServeClient("127.0.0.1", handle.port) as client:
                assert client.query((0, 0, 0))["ok"]
            assert glob.glob("/dev/shm/repro-shm-*")  # published while up
        finally:
            handle.stop()
        assert not glob.glob("/dev/shm/repro-shm-*")  # audit: clean exit


class TestSwapDataset:
    def test_swap_requiesces_and_serves_new_data(self, server_factory):
        engine = _engine(150, (5, 5, 4), seed=3)
        handle = server_factory(
            engine, ServiceConfig(pool="process", workers=1)
        )
        with ServeClient("127.0.0.1", handle.port) as client:
            assert client.query((0, 0, 0))["ok"]
        new_ds = synthetic_dataset(120, [4, 4], seed=11)
        handle.call(lambda: handle.service.swap_dataset(new_ds))
        oracle = ReverseSkylineEngine(new_ds, algorithm="TRS", log_queries=False)
        with ServeClient("127.0.0.1", handle.port) as client:
            old_shape = client.query((0, 0, 0))  # 3 values: now invalid
            assert not old_shape["ok"]
            assert old_shape["error"]["type"] == "bad-request"
            resp = client.query((0, 0))
            assert resp["ok"]
            assert resp["records"] == list(oracle.query((0, 0)).record_ids)


class TestCLI:
    def test_serve_load_round_trip(self, tmp_path, capsys):
        from repro.cli import main
        from repro.persist.format import save_dataset

        ds = synthetic_dataset(150, [5, 5, 4], seed=3)
        path = str(tmp_path / "ds")
        save_dataset(ds, path)
        engine = ReverseSkylineEngine(ds, algorithm="TRS", log_queries=False)
        handle = serve_in_background(
            engine, ServiceConfig(pool="thread", workers=2)
        )
        try:
            rc = main(
                [
                    "serve-load",
                    path,
                    "--port",
                    str(handle.port),
                    "--clients",
                    "2",
                    "--requests",
                    "4",
                ]
            )
        finally:
            handle.stop()
        assert rc == 0
        out = capsys.readouterr().out
        assert "8 ok, 0 shed" in out
        assert "throughput" in out


# -- incremental maintenance over the wire -----------------------------------


def _maint_engine(n=150, values=(5, 5, 4), seed=3, **kw):
    from repro.maint import MaintainedEngine

    ds = synthetic_dataset(n, list(values), seed=seed)
    kw.setdefault("log_queries", False)
    return MaintainedEngine(ds, **kw)


def _live_ids(store, query):
    """Rebuild oracle: plain engine over the live records, answer
    translated to stable ids and sorted (order-insensitive compare)."""
    from repro.data.dataset import Dataset

    live = store.live_entries()
    if not live:
        return []
    ds = Dataset(
        store.base.schema,
        [values for _, values in live],
        store.base.space,
        validate=False,
        name="serve-oracle",
    )
    oracle = ReverseSkylineEngine(ds, log_queries=False)
    sids = [sid for sid, _ in live]
    return sorted(sids[p] for p in oracle.query(query).record_ids)


class TestMaintUpdates:
    def test_protocol_update_decode(self):
        req = decode_request(
            b'{"op": "update", "inserts": [[1, 2, 3]], "deletes": [4], "id": "u1"}'
        )
        assert req.op == "update"
        assert req.inserts == ((1, 2, 3),)
        assert req.deletes == (4,)

    @pytest.mark.parametrize(
        "line",
        [
            b'{"op": "update"}',
            b'{"op": "update", "inserts": [[]]}',
            b'{"op": "update", "inserts": [[1]], "deletes": [-1]}',
            b'{"op": "update", "inserts": [[1]], "deletes": [true]}',
            b'{"op": "update", "inserts": "nope"}',
        ],
    )
    def test_protocol_update_rejects(self, line):
        with pytest.raises(BadRequest):
            decode_request(line)

    def test_update_round_trip_thread_pool(self, server_factory):
        engine = _maint_engine()
        handle = server_factory(
            engine, ServiceConfig(pool="thread", workers=2)
        )
        with ServeClient("127.0.0.1", handle.port) as client:
            first = client.query((0, 0, 0))
            assert first["ok"]
            assert sorted(first["records"]) == _live_ids(engine.store, (0, 0, 0))
            up = client.request(
                {"op": "update", "inserts": [[4, 4, 3], [0, 1, 2]],
                 "deletes": [3, 7]}
            )
            assert up["ok"], up
            assert up["inserted"] == [150, 151]
            assert sorted(up["deleted"]) == [3, 7]
            assert up["epoch"] == 1
            after = client.query((0, 0, 0))
            assert after["ok"] and not after.get("cached")
            assert sorted(after["records"]) == _live_ids(engine.store, (0, 0, 0))

    def test_update_on_plain_engine_is_typed(self, server_factory):
        handle = server_factory(_engine(), ServiceConfig(pool="thread"))
        with ServeClient("127.0.0.1", handle.port) as client:
            resp = client.request({"op": "update", "inserts": [[1, 1, 1]]})
            assert not resp["ok"]
            assert resp["error"]["type"] == "bad-request"
            assert client.query((0, 0, 0))["ok"]  # connection survives

    def test_bad_update_values_are_typed(self, server_factory):
        engine = _maint_engine()
        handle = server_factory(engine, ServiceConfig(pool="thread"))
        with ServeClient("127.0.0.1", handle.port) as client:
            resp = client.request(
                {"op": "update", "inserts": [[99, 99]]}  # wrong arity
            )
            assert not resp["ok"]
            assert resp["error"]["type"] in ("bad-request", "query-error")
            assert client.query((0, 0, 0))["ok"]

    def test_process_pool_updates_and_compaction_rebuild(self, server_factory):
        """Non-compacting updates reach the workers via the maint wire
        envelope; a compacting update rebuilds the pool on the new base.
        Answers stay bit-identical to the rebuild oracle throughout."""
        engine = _maint_engine(
            backend="numpy", compact_min=12, compact_fraction=0.0
        )
        handle = server_factory(
            engine,
            ServiceConfig(pool="process", workers=2, batch_window_s=0.0),
        )
        with ServeClient("127.0.0.1", handle.port) as client:
            assert sorted(client.query((0, 0, 0))["records"]) == _live_ids(
                engine.store, (0, 0, 0)
            )
            up = client.request(
                {"op": "update", "inserts": [[1, 2, 3], [4, 0, 1], [2, 2, 2]],
                 "deletes": [5]}
            )
            assert up["ok"] and not up["compacted"]
            assert sorted(client.query((1, 1, 1))["records"]) == _live_ids(
                engine.store, (1, 1, 1)
            )
            # Push churn past compact_min: the service must drop the maint
            # envelope and rebuild the pool on the compacted base.
            compacted = False
            for i in range(4):
                up = client.request(
                    {"op": "update",
                     "inserts": [[i % 5, (i + 1) % 5, i % 4]] * 3}
                )
                assert up["ok"], up
                compacted = compacted or up["compacted"]
            assert compacted
            assert handle.service.stats.pool_rebuilds >= 1
            for q in ((0, 0, 0), (2, 3, 1), (4, 4, 3)):
                assert sorted(client.query(q)["records"]) == _live_ids(
                    engine.store, q
                )

    def test_read_p50_within_budget_under_writes(self, server_factory):
        """Acceptance: apply_updates never quiesces reads — p50 read
        latency under a concurrent write stream stays within 1.5x of
        the no-write baseline (plus a small absolute allowance for
        scheduler noise at sub-millisecond latencies)."""
        import json as _json
        import statistics
        import threading

        engine = _maint_engine(n=200, backend="numpy")
        handle = server_factory(
            engine, ServiceConfig(pool="thread", workers=2)
        )
        probes = [(a, b, c) for a in range(5) for b in range(5) for c in range(4)]

        def measure(client, rounds=2):
            lat = []
            for _ in range(rounds):
                for q in probes:
                    t0 = time.perf_counter()
                    assert client.query(q)["ok"]
                    lat.append(time.perf_counter() - t0)
            return statistics.median(lat)

        with ServeClient("127.0.0.1", handle.port) as client:
            measure(client, rounds=1)  # warm plans and code paths
            p50_base = measure(client)
            stop = threading.Event()
            wrote = []

            def writer():
                with ServeClient("127.0.0.1", handle.port) as wc:
                    i = 0
                    while not stop.is_set():
                        resp = wc.request(
                            {"op": "update",
                             "inserts": [[i % 5, (i + 1) % 5, i % 4]]}
                        )
                        assert resp["ok"], resp
                        wrote.append(resp["epoch"])
                        i += 1
                        time.sleep(0.002)

            th = threading.Thread(target=writer)
            th.start()
            try:
                p50_writes = measure(client)
            finally:
                stop.set()
                th.join(timeout=30)
            assert wrote, "writer never landed an update"
            assert p50_writes <= 1.5 * p50_base + 0.005, (
                f"p50 under writes {p50_writes * 1e3:.3f}ms vs baseline "
                f"{p50_base * 1e3:.3f}ms ({len(wrote)} updates applied)"
            )


class TestRecallTarget:
    @pytest.mark.parametrize(
        "line",
        [
            b'{"op": "query", "query": [1], "recall_target": "hi"}',
            b'{"op": "query", "query": [1], "recall_target": 1.5}',
            b'{"op": "query", "query": [1], "recall_target": -0.1}',
            b'{"op": "query", "query": [1], "recall_target": true}',
            b'{"op": "query", "query": [1], "kind": "count", "recall_target": 0.9}',
        ],
    )
    def test_protocol_rejects(self, line):
        with pytest.raises(BadRequest):
            decode_request(line)

    def test_cache_isolation(self, server_factory):
        """An exact cached answer must never satisfy an approximate
        request (or vice versa): recall_target is part of the result
        cache key."""
        handle = server_factory(_engine(), ServiceConfig(pool="thread"))
        with ServeClient("127.0.0.1", handle.port) as client:
            exact = client.query((0, 0, 0))
            assert exact["ok"] and not exact.get("cached")
            assert client.query((0, 0, 0))["cached"]
            approx = client.request(
                {"op": "query", "query": [0, 0, 0], "recall_target": 0.9}
            )
            assert approx["ok"], approx
            assert not approx.get("cached"), (
                "approximate request was served from the exact cache entry"
            )
            again = client.request(
                {"op": "query", "query": [0, 0, 0], "recall_target": 0.9}
            )
            assert again["cached"]
            # The exact entry is still there, untouched.
            assert client.query((0, 0, 0))["cached"]


class TestDrain:
    def test_drain_answers_inflight_then_refuses(self):
        """A request already on the wire when drain starts still gets
        its answer; afterwards the listener refuses new connections and
        existing connections see EOF."""
        import json as _json
        import socket
        import threading

        engine = _engine()
        handle = serve_in_background(
            engine, ServiceConfig(pool="thread", workers=2)
        )
        try:
            client = ServeClient("127.0.0.1", handle.port)
            assert client.query((0, 0, 0))["ok"]
            client._file.write(
                _json.dumps(
                    {"op": "query", "query": [1, 1, 1], "id": "d1"}
                ).encode()
                + b"\n"
            )
            client._file.flush()
            # Wait for admission so drain races the *answer*, not the
            # socket read — a not-yet-read line may legitimately shed.
            deadline = time.time() + 10
            while (
                handle.service.stats.admitted < 2 and time.time() < deadline
            ):
                time.sleep(0.001)
            assert handle.service.stats.admitted >= 2

            def _drain():
                asyncio.run_coroutine_threadsafe(
                    handle._server.drain(5.0), handle._loop
                ).result(timeout=30)

            th = threading.Thread(target=_drain)
            th.start()
            line = client._file.readline()
            th.join(timeout=30)
            resp = _json.loads(line)
            assert resp["ok"] and resp["id"] == "d1"
            assert client._file.readline() == b""  # server said goodbye
            with pytest.raises(OSError):
                socket.create_connection(("127.0.0.1", handle.port), timeout=2)
            client.close()
        finally:
            assert handle._thread is not None
            handle._thread.join(timeout=30)
            assert not handle._thread.is_alive()
            handle._loop = None  # loop is closed; make stop() a no-op
        assert not glob.glob("/dev/shm/repro-shm-*")

    def test_sigterm_drains_run_server(self, tmp_path):
        """run_server installs a SIGTERM handler on the main thread:
        the process answers what it accepted, exits 0, and leaves no
        shm segments behind."""
        import subprocess
        import sys

        script = (
            "import sys\n"
            "from repro.data.synthetic import synthetic_dataset\n"
            "from repro.engine import ReverseSkylineEngine\n"
            "from repro.serve import ServiceConfig\n"
            "from repro.serve.server import run_server\n"
            "ds = synthetic_dataset(80, [4, 4], seed=5)\n"
            "engine = ReverseSkylineEngine(ds, log_queries=False)\n"
            "run_server(engine, ServiceConfig(pool='thread', workers=2),\n"
            "           port_file=sys.argv[1])\n"
            "print('drained-clean', flush=True)\n"
        )
        port_file = str(tmp_path / "port")
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.join(root, "src") + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
        )
        proc = subprocess.Popen(
            [sys.executable, "-c", script, port_file],
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        )
        try:
            deadline = time.time() + 60
            port = None
            while time.time() < deadline:
                if os.path.exists(port_file):
                    content = open(port_file).read().strip()
                    if content:
                        port = int(content)
                        break
                if proc.poll() is not None:
                    break
                time.sleep(0.05)
            assert port is not None, proc.communicate()[1]
            with ServeClient("127.0.0.1", port) as client:
                assert client.query((0, 0))["ok"]
                proc.send_signal(signal.SIGTERM)
                out, err = proc.communicate(timeout=30)
        except BaseException:
            proc.kill()
            proc.communicate()
            raise
        assert proc.returncode == 0, err
        assert "drained-clean" in out
        assert not glob.glob("/dev/shm/repro-shm-*")
