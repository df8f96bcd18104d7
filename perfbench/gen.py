"""Inputs: the one dataset, and the query and write streams of a seed.

Everything a workload sends is made here, before any timing starts; the
streams come from the ``--seed`` argument alone. The program under test
only ever sees the persisted dataset and the generated requests.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

#: The shared dataset: 10k records over four 12-value attributes, with
#: ``synthetic_dataset``'s own default seed. It is fixed, not drawn from
#: ``--seed``: each seed draws its own random dissimilarity matrices, and
#: across four seeds that alone moved the point read median from 14 to
#: 26 ms, far more than any run-to-run noise.
RECORDS = 10_000
CARDINALITIES = (12, 12, 12, 12)
DATASET_SEED = 7
#: Size of the fixed hot set the ``serve`` streams repeat.
HOT_SET = 8
#: Draws taken from ``query_batch`` before deduplication. At n=10k about
#: 7,500 are distinct: enough for each of a traced ``serve`` run's two
#: windows, which split the cold queries, to run its full length at
#: ~150 reads/s.
QUERY_DRAWS = 24_000
#: ``mixed`` write batches: fresh inserts and deletes per ``update``. With
#: 512 records of churn per update against the default compaction
#: threshold of max(64, 0.25 n) = 2,500, the store compacts about every
#: fifth update, several times in every measured window.
WRITE_INSERTS = 256
WRITE_DELETES = 256
#: Fresh records drawn for inserts: 32 updates per stream before values
#: repeat (a repeated value is still a new record with a new stable id).
INSERT_POOL = 64 * WRITE_INSERTS


@dataclass
class Inputs:
    dataset_dir: Path
    dataset: object  # repro.data.dataset.Dataset, identical to the saved one
    #: Distinct queries, never repeated within a run; disjoint from ``hot``.
    cold: list[tuple]
    hot: list[tuple]
    #: Fresh records for ``mixed`` inserts, drawn like the base records.
    insert_pool: list[tuple]


def make_inputs(seed: int, work: Path, records: int = RECORDS) -> Inputs:
    """The dataset (saved under ``work``) and every stream drawn from
    ``seed``: the cold and hot queries and the insert pool."""
    from repro.data.queries import query_batch
    from repro.data.synthetic import synthetic_dataset
    from repro.persist import save_dataset

    dataset = synthetic_dataset(records, list(CARDINALITIES), seed=DATASET_SEED)
    dataset_dir = work / "dataset"
    save_dataset(dataset, dataset_dir)
    draws = query_batch(dataset, QUERY_DRAWS, seed=seed * 2 + 1, perturbed=True)
    distinct = list(dict.fromkeys(tuple(int(v) for v in q) for q in draws))
    extra = synthetic_dataset(INSERT_POOL, list(CARDINALITIES), seed=seed * 2 + 2)
    return Inputs(
        dataset_dir=dataset_dir,
        dataset=dataset,
        cold=distinct[HOT_SET:],
        hot=distinct[:HOT_SET],
        insert_pool=[tuple(int(v) for v in r) for r in extra.records],
    )
