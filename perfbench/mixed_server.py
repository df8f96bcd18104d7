"""Launcher for the ``mixed`` workload's server.

Serves a :class:`repro.maint.MaintainedEngine` (VectorTRS on numpy, the
paper's 32 KiB pages and 10% memory budget, default compaction
thresholds) through ``repro.serve.server.run_server`` with the default
service configuration: a thread pool of two workers, result cache and
plans on. The CLI ``serve`` command cannot serve a maintained engine,
which is why this launcher exists.

    PYTHONPATH=src python3 perfbench/mixed_server.py <dataset-dir> --port-file <f>
"""

from __future__ import annotations

import argparse


def build_engine(dataset_dir):
    """The maintained engine both the spawned and the in-process
    (traced) ``mixed`` servers serve."""
    from repro.maint import MaintainedEngine
    from repro.persist import load_dataset

    return MaintainedEngine(
        load_dataset(dataset_dir),
        algorithm="VectorTRS",
        backend="numpy",
        memory_fraction=0.10,
    )


def main() -> None:
    from repro.serve import ServiceConfig, run_server

    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("dataset")
    ap.add_argument("--port-file", required=True)
    args = ap.parse_args()
    run_server(build_engine(args.dataset), ServiceConfig(), port_file=args.port_file)


if __name__ == "__main__":
    main()
