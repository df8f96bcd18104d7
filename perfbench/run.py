"""Repository benchmark: reverse-skyline reads on one 10k-record dataset.

Run from the repository root:

    python3 perfbench/run.py --workload point --seed 1 --seconds 25 --trace 0

Every run saves the one synthetic dataset (10,000 records, four 12-value
attributes, fixed; see ``gen.py``) with ``repro.persist.save_dataset``
before any timing, and generates its query and write streams from
``--seed``. VectorTRS on numpy, 32 KiB pages, ``memory_fraction=0.10``.

Workloads (see ``BENCHMARK.json`` for why each exists):

- ``point``: in-process, one caller, serial ``engine.query`` on cold queries;
- ``serve``: ``python -m repro serve`` on a process pool of 2, driven by 2
  closed-loop connections sending 4 cold queries then 1 of 8 hot ones;
- ``mixed``: a ``MaintainedEngine`` server (``perfbench/mixed_server.py``),
  2 connections each sending 9 cold reads then one update of 256 inserts
  and 256 deletes.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` makes a separate
profiled run and prints the per-layer report. Either way answers are checked
against ``reverse_skyline_by_pruners`` outside the timed window; a wrong
answer exits 1 with no result line. The last line of stdout is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: (name, unit) of the end-to-end metrics, in report order.
END_TO_END = (
    ("setup_s", "s"),
    ("read_p50_ms", "ms"),
    ("read_qps", "1/s"),
    ("cpu_ms_per_op", "ms"),
    ("peak_rss_mb", "MiB"),
    ("ok_frac", "ratio"),
)
#: Cold set-ups per run by workload; ``setup_s`` is their median. A
#: ``point`` set-up takes ~0.25 s, a server's ~1 s plus its shutdown.
SETUPS = {"point": 15, "serve": 7, "mixed": 7}
#: Answers per run checked against the pruner oracle (~1 s each at n=10k).
CHECKS = 3


def _parse(argv):
    ap = argparse.ArgumentParser(description="reverse-skyline repository benchmark")
    ap.add_argument("--workload", required=True, choices=("point", "serve", "mixed"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # Self-test knobs: a smaller dataset, fewer set-ups, and a
    # deliberately corrupted answer that the gate must catch.
    ap.add_argument("--records", type=int, default=None)
    ap.add_argument("--setups", type=int, default=None)
    ap.add_argument("--corrupt", action="store_true")
    return ap.parse_args(argv)


def _check(gate, corrupt: bool) -> list[str]:
    """Compare every sampled answer with the pruner oracle."""
    from repro import reverse_skyline_by_pruners

    wrong = []
    for dataset, answers, ids in gate:
        for i, (query, got) in enumerate(answers):
            got = sorted(got)
            if corrupt and i == 0:
                got = sorted(set(got) ^ {got[0] if got else 0})
            want = reverse_skyline_by_pruners(dataset, tuple(query))
            if ids is not None:
                want = [ids[w] for w in want]
            if sorted(want) != got:
                wrong.append(f"query {tuple(query)}: got {got}, want {sorted(want)}")
    return wrong


def _report(args, run) -> dict:
    import layers

    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  trace {args.trace}")
    metrics = {}
    if not args.trace:
        for name, unit in END_TO_END:
            value = run.e2e[name]
            print(f"  {name:<14} {value:>12.4f} {unit}")
            metrics[name] = {"value": value, "unit": unit}
    else:
        print(f"  {'metric':<28} {'value':>12} {'unit':<6} should move")
        for name, unit, moves in layers.PER_LAYER:
            value = run.layers.get(name)
            shown = f"{value:>12.4f}" if value is not None else f"{'not measured':>12}"
            print(f"  {name:<28} {shown} {unit:<6} {moves}")
            metrics[name] = {"value": value if value is not None else 0.0, "unit": unit}
    for note in run.notes:
        print(f"  {note}")
    return metrics


def main(argv=None) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no repro sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import gen
    import loads
    import procs

    procs.adopt_orphans()
    scratch = ROOT / ".perfbench_work"
    scratch.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch))
    try:
        ctx = loads.Context(
            inputs=gen.make_inputs(args.seed, work, args.records or gen.RECORDS),
            root=ROOT,
            work=work,
            seed=args.seed,
            seconds=args.seconds,
            trace=bool(args.trace),
            setups=args.setups or SETUPS[args.workload],
            checks=CHECKS,
        )
        if args.workload == "point":
            run = loads.run_point(ctx)
        else:
            run = loads.run_served(ctx, args.workload)
        wrong = _check(run.gate, args.corrupt)
    finally:
        procs.stop_children()
        shutil.rmtree(work, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:
            pass
    if wrong:
        print(f"error: {len(wrong)} wrong answer(s); no result reported", file=sys.stderr)
        for line in wrong:
            print(f"  {line}", file=sys.stderr)
        return 1
    metrics = _report(args, run)
    print(json.dumps({"correct": True, "attempted": run.attempted, "failed": run.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
