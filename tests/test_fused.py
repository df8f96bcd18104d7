"""Fused multi-query kernels.

The fused tier promises the same contract as every other backend — the
per-query kernel loop, the scalar path and the fused path must agree on
results, batch structure and page IOs — plus one stronger guarantee of
its own: fused and per-query *numpy* runs produce identical
``per_query_checks`` decompositions (the stacked/forest kernels count
exactly what the solo kernels count).
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.multiquery import SharedScanTRS
from repro.data.dataset import Dataset
from repro.data.queries import query_batch
from repro.data.schema import Schema
from repro.data.synthetic import synthetic_dataset
from repro.dissim.generators import (
    nonmetric_dissimilarity,
    random_dissimilarity,
)
from repro.dissim.space import DissimilaritySpace
from repro.storage.disk import MemoryBudget
from repro.testing.verify import random_workload

_CONTRACT_STATS = (
    "db_passes",
    "phase1_batches",
    "phase2_batches",
    "intermediate_count",
    "phase1_pruned",
    "pruner_tests",
    "result_count",
)
_CONTRACT_IO = (
    "sequential_reads",
    "random_reads",
    "sequential_writes",
    "random_writes",
)

#: The group sizes the fused kernels must be exact on: a singleton
#: group, a pair, a worker-sized group and one that is none of those.
GROUP_SIZES = (1, 2, 4, 7)


def _run(ds, qs, budget_pages, page_bytes, *, backend, fused=True):
    algo = SharedScanTRS(
        ds,
        backend=backend,
        fused=fused,
        budget=MemoryBudget(budget_pages),
        page_bytes=page_bytes,
    )
    return algo.run_batch(qs)


def assert_batches_identical(got, ref, label="", checks=True):
    """``got`` must match ``ref`` on results, contract stats and IO;
    with ``checks=True`` also on every checks decomposition."""
    assert got.results == ref.results, label
    for f in _CONTRACT_STATS:
        assert getattr(got.stats, f) == getattr(ref.stats, f), f"{label}: {f}"
    for f in _CONTRACT_IO:
        assert getattr(got.stats.io, f) == getattr(ref.stats.io, f), (
            f"{label}: {f}"
        )
    if checks:
        assert got.per_query_checks == ref.per_query_checks, label
        assert got.per_query_checks_phase1 == ref.per_query_checks_phase1, label
        assert got.per_query_checks_phase2 == ref.per_query_checks_phase2, label
        assert got.stats.checks == ref.stats.checks, label


# --- fused vs per-query vs scalar --------------------------------------------


class TestFusedDifferential:
    def test_randomized_trials(self):
        for t in range(25):
            case = random_workload(7100 + t)
            size = GROUP_SIZES[t % len(GROUP_SIZES)]
            qs = [case.query] + query_batch(case.dataset, size - 1, seed=t)
            kw = dict(budget_pages=case.budget_pages, page_bytes=case.page_bytes)
            py = _run(case.dataset, qs, backend="python", **kw)
            per_q = _run(case.dataset, qs, backend="numpy", fused=False, **kw)
            fus = _run(case.dataset, qs, backend="numpy", **kw)
            assert fus.backend == "numpy"
            # Fused == per-query numpy on *everything*, checks included.
            assert_batches_identical(fus, per_q, case.describe())
            # Both match the scalar contract (checks granularity differs).
            assert_batches_identical(fus, py, case.describe(), checks=False)

    @pytest.mark.smoke
    def test_group_sizes_smoke(self):
        ds = synthetic_dataset(300, [6, 5, 4], seed=77)
        pool = query_batch(ds, max(GROUP_SIZES), seed=3)
        for size in GROUP_SIZES:
            qs = pool[:size]
            per_q = _run(ds, qs, 3, 256, backend="numpy", fused=False)
            fus = _run(ds, qs, 3, 256, backend="numpy")
            assert_batches_identical(fus, per_q, f"group size {size}")


@st.composite
def fused_case(draw):
    m = draw(st.integers(1, 3))
    cards = [draw(st.integers(3, 6)) for _ in range(m)]
    seed = draw(st.integers(0, 2**16))
    n = draw(st.integers(0, 50))
    rng = np.random.default_rng(seed)
    space = DissimilaritySpace(
        [
            nonmetric_dissimilarity(c, rng)
            if draw(st.booleans())
            else random_dissimilarity(c, rng, symmetric=draw(st.booleans()))
            for c in cards
        ]
    )
    records = [tuple(int(rng.integers(0, c)) for c in cards) for _ in range(n)]
    ds = Dataset(Schema.categorical(cards), records, space, validate=False)
    size = draw(st.sampled_from(GROUP_SIZES))
    qs = [
        tuple(int(rng.integers(0, c)) for c in cards) for _ in range(size)
    ]
    budget_pages = draw(st.integers(2, 5))
    page_bytes = max(draw(st.sampled_from([32, 64, 256])), 4 + 4 * m)
    return ds, qs, budget_pages, page_bytes


@given(fused_case())
@settings(max_examples=25, deadline=None)
def test_property_fused_equals_per_query(case):
    ds, qs, budget_pages, page_bytes = case
    per_q = _run(ds, qs, budget_pages, page_bytes, backend="numpy", fused=False)
    fus = _run(ds, qs, budget_pages, page_bytes, backend="numpy")
    assert_batches_identical(fus, per_q)


@given(fused_case())
@settings(max_examples=15, deadline=None)
def test_property_fused_matches_scalar_contract(case):
    ds, qs, budget_pages, page_bytes = case
    py = _run(ds, qs, budget_pages, page_bytes, backend="python")
    fus = _run(ds, qs, budget_pages, page_bytes, backend="numpy")
    assert_batches_identical(fus, py, checks=False)
