"""Benchmark entry point: one workload per process, one JSON line out.

Run from the repository root::

    python3 perfbench/run.py --workload paper_methods --seed 1 --seconds 25 --trace 0

The last line of standard output is ``{"correct", "attempted", "failed",
"metrics"}``; with ``--trace 0`` the metrics are the ``end_to_end`` ones of
``BENCHMARK.json``, with ``--trace 1`` the ``per_layer`` ones.  Two more
modes drive the first one in child processes:

* ``--smoke`` runs every workload briefly at a small scale, traced and
  untraced, and checks each output against ``BENCHMARK.json``;
* ``--steadiness WORKLOAD --runs N`` runs one workload on seeds ``1..N``
  and prints each end-to-end metric's quartile spread against its bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC_PATH = ROOT / "BENCHMARK.json"
SMOKE_SCALE = 0.002
SMOKE_SECONDS = 1


def load_spec() -> dict:
    with open(SPEC_PATH, encoding="utf-8") as spec:
        return json.load(spec)


def run_workload(args, spec: dict) -> int:
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"error: the program's sources are missing under {src}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import workloads

    run = workloads.WORKLOADS[args.workload]
    options = {} if args.scale is None else {"scale": args.scale}
    result = run(args.seed, args.seconds, bool(args.trace), **options)
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    if args.trace:
        workloads.fill_missing(result, [m["name"] for m in wanted])
    missing = [m["name"] for m in wanted if m["name"] not in result.metrics]
    if missing:
        raise RuntimeError(f"workload produced no {', '.join(missing)}")
    print(json.dumps({
        "correct": result.failed == 0,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {
            m["name"]: {"value": result.metrics[m["name"]], "unit": m["unit"]}
            for m in wanted
        },
    }))
    return 0


def child(workload: str, seed: int, seconds: float, trace: int,
          scale: float | None = None) -> dict:
    """Run one workload in a fresh process and parse its result line."""
    argv = [sys.executable, str(HERE / "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds),
            "--trace", str(trace)]
    if scale is not None:
        argv += ["--scale", str(scale)]
    done = subprocess.run(argv, cwd=str(ROOT), capture_output=True, text=True,
                          timeout=600)
    if done.returncode != 0:
        raise RuntimeError(
            f"{workload} exited {done.returncode}:\n{done.stderr[-2000:]}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def check_output(output: dict, metrics: list[dict]) -> list[str]:
    """Problems with one result line against its metric list."""
    problems = []
    if set(output) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"keys {sorted(output)}")
    if not isinstance(output.get("attempted"), int) or output["attempted"] < 1:
        problems.append("attempted is not a positive integer")
    if not isinstance(output.get("failed"), int):
        problems.append("failed is not an integer")
    if output.get("correct") is not True:
        problems.append("correct is not true")
    got = output.get("metrics", {})
    if set(got) != {m["name"] for m in metrics}:
        problems.append(f"metric names differ: {sorted(set(got) ^ {m['name'] for m in metrics})}")
    for m in metrics:
        entry = got.get(m["name"], {})
        if entry.get("unit") != m["unit"]:
            problems.append(f"{m['name']}: unit {entry.get('unit')!r}")
        if not isinstance(entry.get("value"), (int, float)):
            problems.append(f"{m['name']}: value {entry.get('value')!r}")
    return problems


def smoke(spec: dict) -> int:
    failures = 0
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, metrics in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            output = child(workload, 1, SMOKE_SECONDS, trace, SMOKE_SCALE)
            problems = check_output(output, metrics)
            failures += bool(problems)
            status = "ok" if not problems else "; ".join(problems)
            print(f"{workload} trace={trace}: attempted={output['attempted']} "
                  f"failed={output['failed']} {status}", flush=True)
    return 1 if failures else 0


def steadiness(spec: dict, workload: str, runs: int, seconds: float) -> int:
    """Quartile spread of each end-to-end metric over seeds 1..runs."""
    values: dict[str, list[float]] = {}
    failed = []
    for seed in range(1, runs + 1):
        output = child(workload, seed, seconds, 0)
        failed.append(output["failed"] / output["attempted"])
        for name, entry in output["metrics"].items():
            values.setdefault(name, []).append(entry["value"])
        print(f"seed {seed}: " + " ".join(
            f"{k}={v['value']:.4g}" for k, v in output["metrics"].items()),
            flush=True)
    print(f"\n{workload}: {runs} runs of {seconds} s; failed shares "
          f"{sorted(set(failed))}")
    print(f"{'metric':<14}{'median':>12}{'q1':>12}{'q3':>12}"
          f"{'spread':>9}{'bound':>8}  within bound/3")
    steady = True
    for m in spec["end_to_end"]:
        series = values[m["name"]]
        q1, median, q3 = statistics.quantiles(series, n=4)
        spread = (q3 - q1) / median
        ok = spread <= m["bound"] / 3
        if m["name"] != "setup_s":
            steady &= ok
        print(f"{m['name']:<14}{median:>12.4g}{q1:>12.4g}{q3:>12.4g}"
              f"{spread:>9.3f}{m['bound']:>8.2f}  {'yes' if ok else 'NO'}")
    return 0 if steady else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=None,
                        help="override the network scale (smoke runs)")
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--steadiness", metavar="WORKLOAD")
    parser.add_argument("--runs", type=int, default=10)
    args = parser.parse_args(argv)
    spec = load_spec()
    if args.smoke:
        return smoke(spec)
    if args.steadiness:
        seconds = args.seconds or spec["run_seconds"]
        return steadiness(spec, args.steadiness, args.runs, seconds)
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names or args.seed is None or args.seconds is None:
        parser.error(f"--workload ({'|'.join(names)}), --seed and --seconds "
                     "are required")
    return run_workload(args, spec)


if __name__ == "__main__":
    sys.exit(main())
