"""The three workloads: cold set-ups, measured windows, correctness gate.

``run_point`` and ``run_served`` return a :class:`Run`: the end-to-end
metrics (always from untraced windows), the per-layer metrics (traced
runs only), the answers sampled for the correctness gate and the op
counts.

Load is closed-loop: each of the ``CONNECTIONS`` streams sends its next
request only after the previous answer arrived. In ``mixed`` the timing
metrics cover whole compaction cycles only: read cost climbs with the
deltas and tombstones of a cycle, so a window cut mid-cycle would move
with where the cut fell. Untimed updates bring the store to a compaction
first, and the metrics span from the window's start to its last
compacting ``update`` acknowledgement. Set-ups are split around the
window, so one stretch of interference from outside the program cannot
move all of them.
"""

from __future__ import annotations

import gc
import random
import statistics
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path

import gen
import layers
import procs

#: Concurrent client connections (= streams) for ``serve`` and ``mixed``.
CONNECTIONS = 2
#: ``serve`` streams send 4 cold queries, then 1 from the hot set.
HOT_EVERY = 5
#: ``mixed`` streams send this many cold reads, then one ``update``.
READS_PER_WRITE = 9
#: Untimed queries before a ``point`` window (first-touch memos).
POINT_WARMUP = 2
ALGORITHM = "VectorTRS"
BACKEND = "numpy"
MEMORY_FRACTION = 0.10


@dataclass
class Context:
    inputs: gen.Inputs
    root: Path
    work: Path
    seed: int
    seconds: float
    trace: bool
    setups: int
    checks: int


@dataclass
class Run:
    e2e: dict[str, float] = field(default_factory=dict)
    layers: dict[str, float | None] = field(default_factory=dict)
    notes: list[str] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    #: ``(dataset, [(query, answer ids)], id map or None)`` to check.
    gate: list[tuple] = field(default_factory=list)

    def add(self, window: "Window") -> None:
        self.attempted += len(window.ops)
        self.failed += sum(1 for o in window.ops if not o.ok)


@dataclass
class Op:
    write: bool
    latency_ms: float
    ok: bool
    done_s: float
    query: tuple | None = None
    response: dict | None = None
    tombstoned: bool = False


@dataclass
class Window:
    ops: list[Op]
    #: ``(perf_counter, CPU seconds of the program)`` at the start and
    #: the end of the window, and at each compacting ``update`` ack.
    start: tuple[float, float]
    end: tuple[float, float]
    compactions: list[tuple[float, float]] = field(default_factory=list)

    def span(self) -> tuple[tuple[float, float], tuple[float, float]]:
        """The measured span: up to the last compaction when there was
        one (the window starts on a compaction), else the whole window."""
        if self.compactions:
            return self.start, self.compactions[-1]
        return self.start, self.end

    @property
    def reads(self) -> list[Op]:
        return [o for o in self.ops if not o.write and o.ok]

    @property
    def writes(self) -> list[Op]:
        return [o for o in self.ops if o.write and o.ok]

    def e2e(self, setup_s: float, peak_rss_mb: float) -> dict[str, float]:
        (lo, cpu_lo), (hi, cpu_hi) = self.span()
        # A compacting ack closes its cycle, so it belongs to the span.
        done = [o for o in self.ops if o.ok and lo < o.done_s <= hi]
        reads = [o.latency_ms for o in done if not o.write]
        return {
            "setup_s": setup_s,
            "read_p50_ms": statistics.median(reads),
            "read_qps": len(reads) / (hi - lo),
            "cpu_ms_per_op": (cpu_hi - cpu_lo) * 1000.0 / len(done),
            "peak_rss_mb": peak_rss_mb,
            "ok_frac": sum(o.ok for o in self.ops) / len(self.ops),
        }

    def read_p50_ms(self) -> float:
        return self.e2e(0.0, 0.0)["read_p50_ms"]

    def tail_note(self) -> str:
        p, value, n = layers.tail(o.latency_ms for o in self.reads)
        beyond = n - int(n * p / 100.0)
        return f"read_tail_ms p{p:g} = {value:.4f} ms (n={n} reads, {beyond} beyond)"


def _split(seq, parts: int) -> list[list]:
    return [list(seq[i::parts]) for i in range(parts)]


def _sample(ops: list[Op], k: int, seed: int) -> list[tuple]:
    """``k`` answers to distinct queries, chosen by the seed."""
    by_query = {}
    for o in ops:
        by_query.setdefault(o.query, o)
    picks = random.Random(seed).sample(sorted(by_query), min(k, len(by_query)))
    return [(q, by_query[q].response["records"]) for q in picks]


def _medians(timings: list[dict]) -> dict[str, float]:
    return {k: statistics.median(t[k] for t in timings) for k in timings[0]}


def _hit_frac(before) -> float | None:
    """Plan-cache hits over lookups since ``before`` (taken right after
    the serving engine's set-up emptied the cache): its warm-up, its
    queries and, in ``mixed``, the rebuilds after each compaction."""
    from repro.kernels.plancache import plan_cache

    now = plan_cache().stats()
    hits = now.hits - before.hits
    lookups = hits + now.misses - before.misses
    return hits / lookups if lookups else None


def _timed_warm(make_engine) -> tuple[object, dict, object]:
    """One cold in-process set-up from an empty plan cache: the engine,
    the seconds spent in ``open`` and in the two halves of
    ``warm(plans=True)`` (prepare, then plans), and the plan-cache
    counters as the set-up found them."""
    from repro.kernels.plancache import plan_cache

    # Start from a clean heap, as a fresh process would: otherwise
    # collecting the previous engine lands inside the timing.
    gc.collect()
    plan_cache().clear()
    lookups0 = plan_cache().stats()
    t0 = time.perf_counter()
    engine = make_engine()
    t1 = time.perf_counter()
    engine.warm(plans=False)
    t2 = time.perf_counter()
    engine.warm(plans=True)
    t3 = time.perf_counter()
    return engine, {"open": t1 - t0, "prepare": t2 - t1, "plans": t3 - t2, "setup": t3 - t0}, lookups0


# -- point -------------------------------------------------------------------


def _open_point(ctx: Context):
    from repro import ReverseSkylineEngine

    return ReverseSkylineEngine.open(
        ctx.inputs.dataset_dir,
        algorithm=ALGORITHM,
        backend=BACKEND,
        memory_fraction=MEMORY_FRACTION,
    )


def _point_window(engine, queries, seconds: float, tag: str):
    """Serial ``engine.query`` over cold queries for ``seconds``."""
    from repro.errors import ReproError
    from repro.obs import hooks as obs

    ops, stats = [], []
    start = (time.perf_counter(), time.process_time())
    for i, q in enumerate(queries):
        now = time.perf_counter()
        if now >= start[0] + seconds:
            break
        try:
            with obs.span("bench.read", rid=f"{tag}{i}"):
                result = engine.query(q)
        except ReproError as exc:
            done = time.perf_counter()
            ops.append(Op(False, (done - now) * 1000.0, False, done, q, {"error": str(exc)}))
            continue
        done = time.perf_counter()
        ops.append(Op(False, (done - now) * 1000.0, True, done, q, {"records": list(result.record_ids)}))
        stats.append(result.stats)
    return Window(ops, start, (time.perf_counter(), time.process_time())), stats


def run_point(ctx: Context) -> Run:
    import resource

    from repro.obs import QueryProfiler

    run = Run()
    timings = []
    engine = None
    for _ in range(ctx.setups - ctx.setups // 2):
        engine = None
        engine, t, lookups0 = _timed_warm(lambda: _open_point(ctx))
        timings.append(t)
    cold = iter(ctx.inputs.cold)
    for q in [next(cold) for _ in range(POINT_WARMUP)]:
        engine.query(q)
    queries = list(cold)
    window, stats = _point_window(engine, queries, ctx.seconds, "u")
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    run.add(window)
    checked = window.reads
    if ctx.trace:
        rest = queries[len(window.ops) :]
        with QueryProfiler() as prof:
            traced, tstats = _point_window(engine, rest, ctx.seconds, "t")
        run.add(traced)
        reads = len(traced.reads)
        run.layers.update(
            {
                "kernels.plan_cache_hit_frac": _hit_frac(lookups0),
                "read_tail_ms": layers.tail(o.latency_ms for o in window.reads)[1],
                "trace.overhead_frac": traced.read_p50_ms() / window.read_p50_ms() - 1.0,
            }
        )
        run.layers.update(layers.span_metrics([prof.trace], reads))
        run.layers.update(layers.stats_metrics(stats + tstats))
        checked = checked + traced.reads
    for _ in range(ctx.setups // 2):
        timings.append(_timed_warm(lambda: _open_point(ctx))[1])
    med = _medians(timings)
    run.e2e = window.e2e(med["setup"], peak)
    run.notes.append(window.tail_note())
    if ctx.trace:
        run.layers.update(
            {
                "persist.open_s": med["open"],
                "core.prepare_s": med["prepare"],
                "kernels.plan_build_s": med["plans"],
            }
        )
    run.gate.append((ctx.inputs.dataset, _sample(checked, ctx.checks, ctx.seed), None))
    return run


# -- closed-loop socket load ---------------------------------------------------


def _closed_loop(port: int, streams, seconds: float, cpu_of=lambda: 0.0) -> Window:
    """Drive one connection per stream until ``seconds`` have passed;
    ``cpu_of()`` gives the program's CPU seconds so far.

    A stream is ``(next_request, on_response)``: ``next_request(k)``
    returns the k-th request (or ``None`` when its inputs ran out),
    ``on_response(k, request, response)`` sees each answer before the
    next request is made."""
    from repro.obs import hooks as obs
    from repro.serve.client import ServeClient

    barrier = threading.Barrier(len(streams) + 1)
    results: list[list[Op]] = [[] for _ in streams]
    errors: list[BaseException] = []
    start: list[tuple[float, float]] = []
    compactions: list[tuple[float, float]] = []

    def drive(c: int) -> None:
        next_request, on_response = streams[c]
        try:
            with ServeClient("127.0.0.1", port) as client:
                client.ping()
                barrier.wait(timeout=60)
                deadline = start[0][0] + seconds
                k = 0
                while time.perf_counter() < deadline:
                    req = next_request(k)
                    if req is None:
                        break
                    tombstoned = req.pop("_tombstoned", False)
                    s = time.perf_counter()
                    with obs.span("bench.request", rid=req["id"], op=req["op"]):
                        resp = client.request(req)
                    done = time.perf_counter()
                    write = req["op"] == "update"
                    query = None if write else tuple(req["query"])
                    results[c].append(
                        Op(write, (done - s) * 1000.0, bool(resp.get("ok")), done, query, resp, tombstoned)
                    )
                    if resp.get("compacted"):
                        compactions.append((done, cpu_of()))
                    on_response(k, req, resp)
                    k += 1
        except BaseException as exc:
            errors.append(exc)
            barrier.abort()

    threads = [threading.Thread(target=drive, args=(c,)) for c in range(len(streams))]
    for t in threads:
        t.start()
    start.append((time.perf_counter(), cpu_of()))
    try:
        barrier.wait(timeout=60)
    except threading.BrokenBarrierError:
        pass
    for t in threads:
        t.join()
    end = (time.perf_counter(), cpu_of())
    if errors:
        raise errors[0]
    return Window([op for ops in results for op in ops], start[0], end, sorted(compactions))


def _serve_streams(cold, hot):
    streams = []
    for c, mine in enumerate(_split(cold, CONNECTIONS)):
        it = iter(mine)

        def next_request(k, c=c, it=it):
            if k % HOT_EVERY == HOT_EVERY - 1:
                q = hot[(c + CONNECTIONS * (k // HOT_EVERY)) % len(hot)]
            else:
                q = next(it, None)
                if q is None:
                    return None
            return {"op": "query", "query": list(q), "id": f"{c}-{k}"}

        streams.append((next_request, lambda k, req, resp: None))
    return streams


class _MixedState:
    """The ``mixed`` write stream and the live record set it leaves.

    Stream ``c`` owns base stable ids ``[c*n/C, (c+1)*n/C)`` and deletes
    them in order, then its own earliest inserts once the slice is used
    up, so every delete names a live record and no two streams collide."""

    def __init__(self, inputs: gen.Inputs) -> None:
        n = len(inputs.dataset)
        self.live = dict(enumerate(inputs.dataset.records))
        self.lock = threading.Lock()
        self.tombstones = 0
        self._owned = [deque(range(c * n // CONNECTIONS, (c + 1) * n // CONNECTIONS)) for c in range(CONNECTIONS)]
        self._inserted = [deque() for _ in range(CONNECTIONS)]
        self._pools = _split(inputs.insert_pool, CONNECTIONS)
        self._used = [0] * CONNECTIONS

    def update_request(self, c: int, k: int) -> dict:
        pool = self._pools[c]
        inserts = [pool[(self._used[c] + j) % len(pool)] for j in range(gen.WRITE_INSERTS)]
        self._used[c] += gen.WRITE_INSERTS
        deletes = []
        for _ in range(gen.WRITE_DELETES):
            source = self._owned[c] or self._inserted[c]
            if source:
                deletes.append(source.popleft())
        return {"op": "update", "inserts": [list(r) for r in inserts], "deletes": deletes, "id": f"{c}-{k}"}

    def on_ack(self, c: int, req: dict, resp: dict) -> None:
        if not resp.get("ok"):
            return
        with self.lock:
            for sid in resp["deleted"]:
                del self.live[sid]
            for sid, values in zip(resp["inserted"], req["inserts"]):
                self.live[sid] = tuple(values)
            self.tombstones = resp["tombstones"]
        self._inserted[c].extend(resp["inserted"])

    def streams(self, cold):
        streams = []
        for c, mine in enumerate(_split(cold, CONNECTIONS)):
            it = iter(mine)

            def next_request(k, c=c, it=it):
                if k % (READS_PER_WRITE + 1) == READS_PER_WRITE:
                    return self.update_request(c, k)
                q = next(it, None)
                if q is None:
                    return None
                return {"op": "query", "query": list(q), "id": f"{c}-{k}", "_tombstoned": self.tombstones > 0}

            def on_response(k, req, resp, c=c):
                if req["op"] == "update":
                    self.on_ack(c, req, resp)

            streams.append((next_request, on_response))
        return streams

    def compact_first(self, port: int) -> None:
        """Untimed: send stream 0's updates until the store compacts, so
        the measured window starts on a cycle boundary."""
        from repro.serve.client import ServeClient

        with ServeClient("127.0.0.1", port) as client:
            for k in range(1000):
                req = self.update_request(0, -1 - k)
                resp = client.request(req)
                self.on_ack(0, req, resp)
                if not resp.get("ok") or resp["compacted"]:
                    return
        raise RuntimeError("the store never compacted")

    def live_dataset(self, base):
        """The live records as a dataset, plus position -> stable id."""
        from repro.data.dataset import Dataset

        sids = sorted(self.live)
        records = [self.live[s] for s in sids]
        return Dataset(base.schema, records, base.space, validate=False, name="live"), sids


# -- serve and mixed ----------------------------------------------------------


def _spawn_ready(ctx: Context, workload: str, tag: str) -> tuple[procs.ServerProcess, float]:
    """One cold server process and its seconds from spawn to first ok ping."""
    data = str(ctx.inputs.dataset_dir)
    if workload == "serve":
        argv = ["-m", "repro", "serve", data, "--algorithm", ALGORITHM, "--backend", BACKEND,
                "--memory", str(MEMORY_FRACTION), "--pool", "process", "--workers", "2"]
    else:
        argv = [str(Path(__file__).with_name("mixed_server.py")), data]
    server = procs.ServerProcess(argv, root=ctx.root, work=ctx.work, tag=tag)
    try:
        return server, server.wait_ready()
    except BaseException:
        server.stop()
        raise


def _cold_setups(ctx: Context, workload: str, count: int, run: Run) -> list[float]:
    times = []
    for _ in range(count):
        server, seconds = _spawn_ready(ctx, workload, "setup")
        times.append(seconds)
        _stop(server, run)
    return times


def _stop(server: procs.ServerProcess, run: Run) -> None:
    server.stop()
    if server.leaked_segments:
        run.notes.append(f"unlinked {server.leaked_segments} shm segment(s) a server left behind")


def _in_process_engine(ctx: Context, workload: str):
    if workload == "serve":
        from repro import ReverseSkylineEngine
        from repro.persist import load_dataset

        # What the ``serve`` command builds.
        return ReverseSkylineEngine(
            load_dataset(ctx.inputs.dataset_dir),
            algorithm=ALGORITHM,
            backend=BACKEND,
            memory_fraction=MEMORY_FRACTION,
        )
    import mixed_server

    return mixed_server.build_engine(ctx.inputs.dataset_dir)


def _service_config(workload: str):
    from repro.serve import ServiceConfig

    return ServiceConfig(pool="process", workers=2) if workload == "serve" else ServiceConfig()


def _streams(ctx: Context, workload: str, cold, port: int):
    if workload == "serve":
        return _serve_streams(cold, ctx.inputs.hot), None
    state = _MixedState(ctx.inputs)
    state.compact_first(port)
    return state.streams(cold), state


def _gate_entry(ctx: Context, workload: str, window: Window, state, port: int, checks):
    """What the correctness gate checks: sampled answers for ``serve``;
    for ``mixed``, fresh queries answered on the final state, checked
    against the live record set with stable ids mapped back."""
    from repro.serve.client import ServeClient

    if workload == "serve":
        return (ctx.inputs.dataset, _sample(window.reads, ctx.checks, ctx.seed), None)
    answers = []
    with ServeClient("127.0.0.1", port) as client:
        for q in checks:
            resp = client.query(q)
            if not resp.get("ok"):
                raise RuntimeError(f"check query failed: {resp}")
            answers.append((q, resp["records"]))
    dataset, sids = state.live_dataset(ctx.inputs.dataset)
    return (dataset, answers, sids)


def _response_layers(window: Window, stats: dict) -> dict[str, float | None]:
    reads = window.reads
    uncached = [o for o in reads if not o.response.get("cached")]
    b = stats["batcher"]
    grouped = b["coalesced"] + b["singles"]
    out = {
        "exec.result_cache_hit_frac": (len(reads) - len(uncached)) / len(reads),
        "exec.planned_frac": sum(1 for o in reads if o.response.get("planned")) / len(reads),
        "serve.coalesced_frac": b["coalesced"] / grouped if grouped else 0.0,
        "serve.effective_window_ms": b["effective_window_ms"],
        "serve.shed": float(stats["shed_total"]),
        "serve.deadline": float(sum(stats["deadline"].values())),
    }
    if uncached:
        out["serve.exec_ms"] = statistics.median(o.response["wall_ms"] for o in uncached)
        out["serve.overhead_ms"] = statistics.median(o.latency_ms - o.response["wall_ms"] for o in uncached)
    return out


def _maint_layers(window: Window) -> dict[str, float | None]:
    writes = window.writes
    reads = window.reads
    compacting = [o.latency_ms for o in writes if o.response["compacted"]]
    out = {
        "maint.compactions": float(len(compacting)),
        "maint.tombstoned_read_frac": sum(o.tombstoned for o in reads) / len(reads),
    }
    if writes:
        out["maint.write_p50_ms"] = statistics.median(o.latency_ms for o in writes)
        out["maint.delta_records_mean"] = statistics.fmean(o.response["delta_records"] for o in writes)
        out["maint.tombstones_mean"] = statistics.fmean(o.response["tombstones"] for o in writes)
    if compacting:
        out["maint.compaction_ms"] = statistics.median(compacting)
    return out


def run_served(ctx: Context, workload: str) -> Run:
    run = Run()
    checks = ctx.inputs.cold[-ctx.checks :]
    cold = ctx.inputs.cold[: -ctx.checks]
    before = ctx.setups - ctx.setups // 2
    times = _cold_setups(ctx, workload, before - 1, run)
    if ctx.trace:
        times += _cold_setups(ctx, workload, ctx.setups - len(times), run)
        return _traced_served(ctx, workload, run, statistics.median(times), cold, checks)
    server, seconds = _spawn_ready(ctx, workload, "window")
    times.append(seconds)
    try:
        streams, state = _streams(ctx, workload, cold, server.port)
        pids = server.pids()
        window = _closed_loop(server.port, streams, ctx.seconds, lambda: procs.cpu_s(pids))
        peak = procs.hwm_mib(server.pids())
        run.add(window)
        run.gate.append(_gate_entry(ctx, workload, window, state, server.port, checks))
    finally:
        _stop(server, run)
    times += _cold_setups(ctx, workload, ctx.setups // 2, run)
    run.e2e = window.e2e(statistics.median(times), peak)
    run.notes.append(window.tail_note())
    if workload == "mixed":
        m = _maint_layers(window)
        run.notes.append(
            f"write_p50_ms = {m['maint.write_p50_ms']:.4f} ms (n={len(window.writes)} updates); "
            f"timings over {len(window.compactions)} whole compaction cycles"
        )
    return run


def _traced_served(ctx: Context, workload: str, run: Run, setup_s: float, cold, checks) -> Run:
    """Per-layer run: timed in-process set-ups, then in-process servers
    (``serve_in_background``): one untraced window, then a fresh server
    and one traced window."""
    from repro.obs import QueryProfiler
    from repro.serve.server import serve_in_background
    from repro.serve.service import QueryService

    med = _medians([_timed_warm(lambda: _in_process_engine(ctx, workload))[1] for _ in range(ctx.setups)])
    run.layers.update(
        {
            "persist.open_s": med["open"],
            "core.prepare_s": med["prepare"],
            "kernels.plan_build_s": med["plans"],
            "serve.start_s": setup_s - med["open"] - med["prepare"] - med["plans"],
        }
    )
    captured: list[tuple] = []
    original_settle = QueryService._settle

    def settle(self, p, outcome, wall_s):
        # The service drops each job's span records (returned by thread
        # and process workers alike) once it settles the answer; keep
        # them, with the request id and the exact cost stats.
        captured.append((p.request_id, outcome.trace, outcome.result))
        return original_settle(self, p, outcome, wall_s)

    p50 = {}
    for traced, queries in zip((False, True), _split(cold, 2)):
        engine, _, lookups0 = _timed_warm(lambda: _in_process_engine(ctx, workload))
        prof = QueryProfiler() if traced else None
        if prof is not None:
            prof.__enter__()
            QueryService._settle = settle
        handle = serve_in_background(engine, _service_config(workload))
        try:
            streams, state = _streams(ctx, workload, queries, handle.port)
            window = _closed_loop(handle.port, streams, ctx.seconds)
            hit_frac = _hit_frac(lookups0)
            stats = handle.service.stats_payload()
            if not traced:
                run.gate.append(_gate_entry(ctx, workload, window, state, handle.port, checks))
        finally:
            handle.stop()
            if prof is not None:
                QueryService._settle = original_settle
                prof.__exit__(None, None, None)
        run.add(window)
        p50[traced] = window.read_p50_ms()
        if traced:
            break
        run.layers.update(_response_layers(window, stats))
        run.layers["read_tail_ms"] = layers.tail(o.latency_ms for o in window.reads)[1]
        run.notes.append(window.tail_note())
        if workload == "mixed":
            run.layers.update(_maint_layers(window))
            run.layers["maint.plans_invalidated"] = float(engine.plans_invalidated_total)
            run.layers["kernels.plan_cache_hit_frac"] = hit_frac
    forests = [trace for _, trace, _ in captured if trace]
    computed = sum(1 for o in window.reads if not o.response.get("cached"))
    run.layers.update(layers.span_metrics(forests, computed))
    run.layers.update(layers.stats_metrics([r.stats for _, _, r in captured if r is not None]))
    run.layers["trace.overhead_frac"] = p50[True] / p50[False] - 1.0
    linked = len({rid for rid, trace, _ in captured if trace})
    run.notes.append(
        f"traced window: {len(forests)} job span trees returned to the service, "
        f"linked to {linked} request ids, for {computed} computed reads"
    )
    return run
