"""Incremental maintenance: delta trees, compaction, epoch caching,
the continuous monitor, and the equivalence harness."""

import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import trs as trs_module
from repro.core.overlay import Overlay
from repro.core.trs import TRS
from repro.core.vector_trs import VectorTRS
from repro.data.dataset import Dataset
from repro.data.synthetic import synthetic_dataset
from repro.engine import ReverseSkylineEngine
from repro.errors import AlgorithmError
from repro.kernels.plancache import configure, plan_cache
from repro.maint import MaintainedEngine, MaintStore
from repro.storage.disk import MemoryBudget
from repro.streaming import ReverseSkylineMonitor
from repro.testing import verify_maint_equivalence


@pytest.fixture(autouse=True)
def _fresh_plan_cache():
    """Isolate the process-wide plan cache between tests."""
    configure(256 * 1024 * 1024)
    yield
    configure(256 * 1024 * 1024)


@pytest.fixture
def ds():
    return synthetic_dataset(120, [6, 5, 7], seed=123)


def _rand_records(dataset, n, rng):
    cards = dataset.schema.cardinalities()
    return [tuple(rng.randrange(c) for c in cards) for _ in range(n)]


def _oracle_ids(store, query):
    live = store.live_entries()
    if not live:
        return ()
    oracle = ReverseSkylineEngine(
        Dataset(
            store.base.schema,
            [v for _, v in live],
            store.base.space,
            validate=False,
            name="oracle",
        ),
        log_queries=False,
    )
    sids = [sid for sid, _ in live]
    return tuple(sorted(sids[p] for p in oracle.query(query).record_ids))


class TestMaintStore:
    def test_stable_ids_are_monotone_and_survive_compaction(self, ds):
        store = MaintStore(ds, compact_min=10_000)
        r1 = store.apply(inserts=[ds.records[0], ds.records[1]], deletes=[5])
        assert r1.inserted == (120, 121)
        assert r1.deleted == (5,)
        store.compact()
        # The compacted base keeps every live stable id; 5 is gone.
        assert 5 not in store.base_ids
        assert 120 in store.base_ids and 121 in store.base_ids
        r2 = store.apply(inserts=[ds.records[2]])
        assert r2.inserted == (122,)

    def test_bad_delete_batch_is_a_no_op(self, ds):
        store = MaintStore(ds, compact_min=10_000)
        with pytest.raises(AlgorithmError):
            store.apply(inserts=[ds.records[0]], deletes=[9999])
        with pytest.raises(AlgorithmError):
            store.apply(deletes=[3, 3])
        assert store.epoch == 0
        assert store.delta_records == 0
        assert store.tombstone_count == 0

    def test_delete_of_uncompacted_insert_counts_as_churn(self, ds):
        store = MaintStore(ds, compact_min=10_000)
        (sid,) = store.apply(inserts=[ds.records[0]]).inserted
        store.apply(deletes=[sid])
        assert store.delta_records == 0
        assert store.tombstone_count == 0  # never reached the base
        assert store._churn() == 1  # but the work is remembered

    def test_size_tiered_merge_keeps_tier_count_logarithmic(self, ds):
        store = MaintStore(ds, compact_min=10_000)
        rng = random.Random(5)
        for _ in range(30):
            store.apply(inserts=_rand_records(ds, 2, rng))
        stats = store.stats()
        assert stats["delta_records"] == 60
        assert stats["delta_tiers"] <= 8
        assert stats["tier_merges"] > 0

    def test_compaction_threshold_triggers_automatically(self, ds):
        store = MaintStore(ds, compact_min=8, compact_fraction=0.0)
        rng = random.Random(6)
        res = store.apply(inserts=_rand_records(ds, 9, rng))
        assert res.compacted
        assert store.compactions == 1
        assert store.delta_records == 0
        assert len(store.base) == 129

    def test_crash_mid_compaction_leaves_store_untouched(self, ds):
        store = MaintStore(ds, compact_min=10_000)
        rng = random.Random(7)
        store.apply(inserts=_rand_records(ds, 5, rng), deletes=[1, 2])
        before = (store.epoch, store.base, store.base_ids,
                  store.delta_records, store.tombstone_count)

        def _boom():
            raise RuntimeError("crash")

        store._crash_hook = _boom
        with pytest.raises(RuntimeError):
            store.compact()
        store._crash_hook = None
        after = (store.epoch, store.base, store.base_ids,
                 store.delta_records, store.tombstone_count)
        assert before == after
        assert store.compact()  # clean retry succeeds
        assert store.delta_records == 0

    def test_wire_state_roundtrip(self, ds):
        parent = MaintStore(ds, compact_min=10_000)
        rng = random.Random(8)
        parent.apply(inserts=_rand_records(ds, 4, rng), deletes=[0, 7])
        worker = MaintStore(ds, compact_min=10_000)
        assert worker.install_wire_state(parent.wire_state())
        assert worker.live_entries() == parent.live_entries()
        # Idempotent: same epoch again is ignored.
        assert not worker.install_wire_state(parent.wire_state())

    def test_wire_state_carries_base_ids_after_compaction(self, ds):
        parent = MaintStore(ds, compact_min=10_000)
        rng = random.Random(9)
        parent.apply(inserts=_rand_records(ds, 3, rng), deletes=[2])
        parent.compact()
        parent.apply(inserts=_rand_records(ds, 2, rng))
        blob = parent.wire_state()
        assert blob["base_ids"] == parent.base_ids  # non-identity now
        worker = MaintStore(parent.base, compact_min=10_000)
        assert worker.install_wire_state(blob)
        assert worker.live_entries() == parent.live_entries()

    def test_wire_state_rejects_out_of_sync_base(self, ds):
        parent = MaintStore(ds, compact_min=10_000)
        parent.apply(deletes=[90])  # beyond the shrunken worker base below
        other = synthetic_dataset(40, [6, 5, 7], seed=9)
        worker = MaintStore(other, compact_min=10_000)
        with pytest.raises(AlgorithmError):
            worker.install_wire_state(parent.wire_state())


class TestMaintainedEngine:
    def test_answers_match_rebuild_oracle_through_churn(self, ds):
        rng = random.Random(11)
        engine = MaintainedEngine(
            ds, backend="numpy", compact_min=15, compact_fraction=0.0,
            log_queries=False,
        )
        queries = _rand_records(ds, 4, rng)
        for _ in range(6):
            live = [sid for sid, _ in engine.store.live_entries()]
            engine.apply_updates(
                inserts=_rand_records(ds, rng.randrange(0, 5), rng),
                deletes=rng.sample(live, rng.randrange(0, 3)),
            )
            for q in queries:
                assert tuple(engine.query(q).record_ids) == _oracle_ids(
                    engine.store, q
                )
        assert engine.store.compactions >= 1  # churn tripped at least one

    def test_updates_leave_plan_cache_entries_warm(self, ds):
        engine = MaintainedEngine(
            ds, backend="numpy", compact_min=10_000, log_queries=False
        )
        rng = random.Random(12)
        q = _rand_records(ds, 1, rng)[0]
        engine.query(q)
        entries = plan_cache().stats().entries
        assert entries > 0
        misses_before = plan_cache().stats().misses
        for _ in range(3):
            engine.apply_updates(inserts=_rand_records(ds, 2, rng))
            engine.query(q)
        stats = plan_cache().stats()
        # Surgical invalidation: update epochs drop nothing and never
        # rebuild — epoch instances are clones of epoch 0's, sharing its
        # plan outright (stronger than a cache hit, which would at least
        # re-fingerprint the layout).
        assert stats.entries == entries
        assert stats.misses == misses_before
        assert engine.plans_invalidated_total == 0
        # Acceptance floor: >= 50% of entries retained across a batch.
        assert stats.entries >= entries * 0.5

    def test_compaction_drops_only_this_bases_plans(self, ds):
        other = synthetic_dataset(80, [5, 4, 6], seed=55)
        bystander = ReverseSkylineEngine(
            other, backend="numpy", log_queries=False
        )
        rng = random.Random(13)
        bystander.query(tuple(rng.randrange(c) for c in other.schema.cardinalities()))
        bystander_entries = plan_cache().stats().entries
        assert bystander_entries > 0
        engine = MaintainedEngine(
            ds, backend="numpy", compact_min=10_000, log_queries=False
        )
        q = _rand_records(ds, 1, rng)[0]
        engine.query(q)
        engine.apply_updates(inserts=_rand_records(ds, 3, rng))
        engine.compact()
        assert engine.plans_invalidated_total > 0
        # The bystander dataset's plans survived the compaction.
        assert plan_cache().stats().entries >= bystander_entries

    def test_result_cache_never_crosses_epochs(self, ds):
        engine = MaintainedEngine(ds, compact_min=10_000, log_queries=False)
        fp0 = engine.layout_fingerprint()
        engine.apply_updates(inserts=[ds.records[0]])
        assert engine.layout_fingerprint() != fp0
        assert engine.layout_fingerprint().endswith("#e1")

    def test_where_filter_sees_stable_id_values(self, ds):
        engine = MaintainedEngine(ds, compact_min=10_000, log_queries=False)
        rng = random.Random(14)
        q = _rand_records(ds, 1, rng)[0]
        full = engine.query(q)
        none = engine.query(q, where=lambda values: False)
        assert none.record_ids == ()
        sub = engine.query(q, where=lambda values: values[0] == 0)
        assert set(sub.record_ids) <= set(full.record_ids)

    def test_unsupported_surfaces_raise(self, ds):
        engine = MaintainedEngine(ds, log_queries=False)
        with pytest.raises(AlgorithmError):
            engine.skyband((0, 0, 0), 2)
        with pytest.raises(AlgorithmError):
            engine.query_subset([0], (0,))
        with pytest.raises(AlgorithmError):
            engine.influence({"p": (0, 0, 0)})
        with pytest.raises(AlgorithmError):
            MaintainedEngine(ds, shards=2)

    def test_recall_target_requires_index_capable_algorithm(self, ds):
        engine = MaintainedEngine(ds, log_queries=False)
        from repro.exec.executor import QuerySpec

        with pytest.raises(AlgorithmError):
            QuerySpec((0, 0, 0), recall_target=1.5)
        with pytest.raises(AlgorithmError):
            QuerySpec((0, 0, 0), kind="skyband", k=2, recall_target=0.9)
        # TRS + recall_target routes to ITRS instead of failing.
        spec = QuerySpec(tuple(0 for _ in ds.schema.cardinalities()),
                         recall_target=1.0)
        result = engine._execute_spec(spec)
        assert result.algorithm in ("ITRS", "IndexedTRS")


class TestMonitor:
    def test_events_track_naive_membership(self, ds):
        rng = random.Random(21)
        mon = ReverseSkylineMonitor.from_dataset(ds)
        queries = {f"q{i}": _rand_records(ds, 1, rng)[0] for i in range(4)}
        members = {
            qid: set(mon.register(qid, q)) for qid, q in queries.items()
        }
        for qid in queries:
            assert members[qid] == set(mon.recompute_naive(qid))
        for _ in range(12):
            live = [o for o in range(mon._next_id) if o in mon]
            res = mon.apply(
                inserts=_rand_records(ds, rng.randrange(0, 3), rng),
                deletes=rng.sample(live, rng.randrange(0, 3)),
            )
            for delta in res.deltas:
                assert not (set(delta.entered) & members[delta.query_id])
                assert set(delta.left) <= members[delta.query_id]
                members[delta.query_id] -= set(delta.left)
                members[delta.query_id] |= set(delta.entered)
            for qid in queries:
                assert members[qid] == set(mon.recompute_naive(qid))

    def test_ids_align_with_maint_store(self, ds):
        rng = random.Random(22)
        store = MaintStore(ds, compact_min=10_000)
        mon = ReverseSkylineMonitor.from_dataset(ds)
        mon.register("q", _rand_records(ds, 1, rng)[0])
        for _ in range(4):
            ins = _rand_records(ds, 2, rng)
            live = [sid for sid, _ in store.live_entries()]
            dels = rng.sample(live, 1)
            res_store = store.apply(inserts=ins, deletes=dels)
            res_mon = mon.apply(inserts=ins, deletes=dels)
            assert res_mon.inserted == res_store.inserted

    def test_influence_filter_is_sound_and_counted(self, ds):
        rng = random.Random(23)
        mon = ReverseSkylineMonitor.from_dataset(ds)
        for i in range(3):
            mon.register(f"q{i}", _rand_records(ds, 1, rng)[0])
        for _ in range(10):
            mon.apply(inserts=_rand_records(ds, 2, rng))
        stats = mon.stats()
        assert stats["evaluated"] + stats["filtered"] == 3 * 20
        for i in range(3):
            assert mon.members(f"q{i}") == mon.recompute_naive(f"q{i}")

    def test_bad_batches_and_lookups_raise(self, ds):
        mon = ReverseSkylineMonitor.from_dataset(ds)
        with pytest.raises(AlgorithmError):
            mon.apply(deletes=[9999])
        with pytest.raises(AlgorithmError):
            mon.apply(deletes=[1, 1])
        with pytest.raises(AlgorithmError):
            mon.members("nope")
        mon.register("q", ds.records[0])
        with pytest.raises(AlgorithmError):
            mon.register("q", ds.records[1])
        mon.unregister("q")
        with pytest.raises(AlgorithmError):
            mon.unregister("q")


class TestHarness:
    def test_verify_maint_equivalence_storm(self):
        report = verify_maint_equivalence(
            trials=4, seed=0, pools=("serial", "thread")
        )
        assert report.ok, str(report.failures[0])
        assert report.batches > 0
        assert report.compactions > 0
        assert report.crash_recoveries > 0

    def test_harness_validates_arguments(self):
        from repro.errors import ExperimentError

        with pytest.raises(ExperimentError):
            verify_maint_equivalence(trials=0)
        with pytest.raises(ExperimentError):
            verify_maint_equivalence(pools=("fiber",))


@settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    seed=st.integers(min_value=0, max_value=2**16),
    ops=st.lists(
        st.tuples(st.integers(0, 3), st.integers(0, 2)), min_size=1, max_size=6
    ),
    compact_min=st.integers(min_value=3, max_value=40),
)
def test_property_random_interleavings_match_rebuild(seed, ops, compact_min):
    """Any interleaving of inserts/deletes/compactions answers
    bit-identically to a from-scratch rebuild over the live records."""
    rng = random.Random(seed)
    base = synthetic_dataset(30 + seed % 20, [4, 3, 5], seed=seed % 7)
    engine = MaintainedEngine(
        base, compact_min=compact_min, compact_fraction=0.0, log_queries=False
    )
    cards = base.schema.cardinalities()
    query = tuple(rng.randrange(c) for c in cards)
    for n_ins, n_del in ops:
        live = [sid for sid, _ in engine.store.live_entries()]
        engine.apply_updates(
            inserts=[
                tuple(rng.randrange(c) for c in cards) for _ in range(n_ins)
            ],
            deletes=rng.sample(live, min(n_del, len(live))),
        )
        assert tuple(engine.query(query).record_ids) == _oracle_ids(
            engine.store, query
        )
    engine.compact()
    assert tuple(engine.query(query).record_ids) == _oracle_ids(
        engine.store, query
    )


# -- tombstoned epochs: vectorised phase 1 ----------------------------------

#: Every field VectorTRS must share bit-for-bit with TRS under an overlay
#: (``checks_*`` follow the frontier accounting; ``peek_reads`` count the
#: uncharged plan builds).
_CONTRACT_STATS = (
    "db_passes",
    "phase1_batches",
    "phase2_batches",
    "pruner_tests",
    "intermediate_count",
    "phase1_pruned",
)
_CONTRACT_IO = (
    "sequential_reads",
    "random_reads",
    "sequential_writes",
    "random_writes",
)


def _assert_same_as_trs(got, want, label):
    assert got.record_ids == want.record_ids, label
    for f in _CONTRACT_STATS:
        assert getattr(got.stats, f) == getattr(want.stats, f), f"{label}: {f}"
    for f in _CONTRACT_IO:
        assert getattr(got.stats.io, f) == getattr(want.stats.io, f), (
            f"{label}: {f}"
        )


def _random_overlay(base, rng, tomb_frac, n_ins, epoch):
    n = len(base)
    cards = base.schema.cardinalities()
    return Overlay(
        entries=[
            (n + j, tuple(rng.randrange(c) for c in cards))
            for j in range(n_ins)
        ],
        tombstones=rng.sample(range(n), int(n * tomb_frac)),
        epoch=epoch,
    )


@settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    seed=st.integers(min_value=0, max_value=2**16),
    n=st.integers(min_value=30, max_value=220),
    # 16 B = one record per page, so a few budget pages make many small
    # batches whose trigger pages shift as tombstones thin the scan.
    page_bytes=st.sampled_from([16, 32, 64, 128]),
    budget_pages=st.integers(min_value=2, max_value=7),
    epochs=st.lists(
        st.tuples(st.floats(0.0, 0.6), st.integers(0, 12)),
        min_size=1,
        max_size=4,
    ),
)
def test_property_tombstoned_vector_trs_matches_trs(
    seed, n, page_bytes, budget_pages, epochs
):
    """Random overlays with tombstones and deltas: VectorTRS, advanced
    epoch by epoch through ``with_overlay`` as the maintained engine
    does, is bit-identical to scalar TRS on ids, charged IO and batch
    structure."""
    rng = random.Random(seed)
    base = synthetic_dataset(n, [5, 4, 6], seed=seed % 11)
    budget = MemoryBudget(budget_pages)
    vec = VectorTRS(base, budget=budget, page_bytes=page_bytes)
    vec.prepare()
    cards = base.schema.cardinalities()
    queries = [tuple(rng.randrange(c) for c in cards) for _ in range(2)]
    for e, (tomb_frac, n_ins) in enumerate(epochs, start=1):
        overlay = _random_overlay(base, rng, tomb_frac, n_ins, e)
        vec = vec.with_overlay(overlay)
        ref = TRS(base, budget=budget, page_bytes=page_bytes, overlay=overlay)
        for q in queries:
            _assert_same_as_trs(
                vec.run(q), ref.run(q), f"epoch {e}, query {q}"
            )


def test_tombstoned_phase1_never_takes_the_scalar_path(monkeypatch):
    base = synthetic_dataset(400, [6, 5, 7], seed=3)
    rng = random.Random(5)
    overlay = _random_overlay(base, rng, 0.2, 20, 1)
    budget = MemoryBudget(2)
    queries = [tuple(rng.randrange(c) for c in (6, 5, 7)) for _ in range(4)]
    ref = TRS(base, budget=budget, page_bytes=64, overlay=overlay)
    want = [ref.run(q) for q in queries]
    vec = VectorTRS(base, budget=budget, page_bytes=64)
    vec.prepare()
    vec.run(queries[0])  # builds the overlay-free base plan
    base_triggers = [pb.trigger_page for pb in vec._p1_cache]

    def scalar(*_args, **_kwargs):
        raise AssertionError("tombstoned VectorTRS reached the scalar path")

    monkeypatch.setattr(trs_module, "is_prunable", scalar)
    monkeypatch.setattr(TRS, "_phase1", scalar)
    monkeypatch.setattr(TRS, "_phase1_delta", scalar)
    epoch = vec.with_overlay(overlay)
    for q, w in zip(queries, want):
        _assert_same_as_trs(epoch.run(q), w, f"query {q}")
    # The deletes really moved the batch boundaries the plan replays.
    batches, _ = epoch._tombstone_plan(None)  # memoised: no data file read
    assert len(batches) > 1
    assert [pb.trigger_page for pb in batches] != base_triggers


def test_tombstoned_queries_publish_no_plans():
    """The per-epoch tombstone plan lives on the instance only: it must
    not enter (and evict base plans from) the process-wide cache."""
    base = synthetic_dataset(300, [6, 5, 7], seed=4)
    rng = random.Random(6)
    vec = VectorTRS(base, budget=MemoryBudget(2), page_bytes=64)
    vec.prepare()
    q = (1, 2, 3)
    vec.run(q)
    before = plan_cache().stats().entries
    assert before > 0
    for e in range(1, 4):
        epoch = vec.with_overlay(_random_overlay(base, rng, 0.1, 5, e))
        epoch.run(q)
        epoch.run(q)
    assert plan_cache().stats().entries == before
