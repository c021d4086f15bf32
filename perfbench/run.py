"""powmon benchmark: four workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is planar_iso, rank4_iso, analyze_mix, n0_algebra, or ``all`` (the
four one after another).  The load model is one client in a closed
loop: repetitions run one at a time, each in a fresh interpreter (so no
cache or memo carries over, as for a CLI user), until S seconds have
passed.  Every output is checked against its reference.  Times are
scaled to a reference host speed measured during each repetition
(hostspeed.py).

The last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``; with ``--trace 0`` the
metrics are the end-to-end ones, with ``--trace 1`` the per-layer ones
from one extra traced repetition.  Any crash, or a missing powmon
package, exits non-zero without printing a result.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402
import workloads  # noqa: E402

#: setup_s is the median of at least this many set-ups per run; runs with
#: fewer full repetitions add set-up-only repetitions.
MIN_SETUP_SAMPLES = 5
#: No repetition starts after this many seconds, so a run ends well
#: inside its 180 s limit.
START_DEADLINE_S = 100.0
CHILD_TIMEOUT_S = 170.0

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("ops_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
    ("outputs_ok", "share"),
    ("pass_share", "share"),
)


class BenchError(RuntimeError):
    pass


def run_child(root: Path, workdir: Path, workload: str, seed: int, mode: str) -> dict:
    cmd = [
        sys.executable, str(HERE / "child.py"),
        "--workload", workload, "--seed", str(seed),
        "--root", str(root), "--workdir", str(workdir), "--mode", mode,
    ]
    env = dict(os.environ, PYTHONHASHSEED="0")
    try:
        proc = subprocess.run(
            cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, env=env, cwd=root
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{workload} {mode} repetition timed out after {exc.timeout} s") from exc
    if proc.returncode != 0:
        raise BenchError(
            f"{workload} {mode} repetition exited {proc.returncode}:\n{proc.stderr.strip()}"
        )
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    for error in out.get("errors", ()):
        print(f"{workload}: powmon raised {error}", file=sys.stderr)
    return out


def measure(root: Path, workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """All repetitions of one run, raw."""
    workdir = HERE / "work"
    workdir.mkdir(exist_ok=True)
    # untimed: compiles the package's bytecode and writes the monoid files
    run_child(root, workdir, workload, seed, "setup")
    reps: list[dict] = []
    start = time.monotonic()
    while not reps or time.monotonic() - start < seconds:
        if time.monotonic() - start > START_DEADLINE_S:
            break
        reps.append(run_child(root, workdir, workload, seed, "run"))
    setups = [scaled(r, "setup_s") for r in reps]
    while len(setups) < MIN_SETUP_SAMPLES:
        setups.append(scaled(run_child(root, workdir, workload, seed, "setup"), "setup_s"))
    traced = run_child(root, workdir, workload, seed, "trace") if trace else None
    return {"reps": reps, "setups": setups, "traced": traced}


def scaled(rep: dict, key: str) -> float:
    """A repetition's time in seconds at the reference host speed."""
    return rep[key] * rep["speed"]


def summarize(raw: dict, trace: bool) -> dict:
    """The result object: correctness counts and the requested metrics."""
    reps, traced = raw["reps"], raw["traced"]
    checked = reps + ([traced] if traced is not None else [])
    attempted = sum(r["attempted"] for r in checked)
    wrong = sum(r["wrong"] for r in checked)
    failed = sum(r["failed"] for r in checked)
    wall = statistics.median(scaled(r, "wall_s") for r in reps)
    if not trace:
        values = {
            "setup_s": statistics.median(raw["setups"]),
            "wall_s": wall,
            "ops_per_s": statistics.median(r["ops"] / scaled(r, "wall_s") for r in reps),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in reps),
            "outputs_ok": 1 - wrong / attempted,
            "pass_share": 1 - failed / attempted,
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    else:
        metrics = per_layer(reps, traced, wall)
    restored = traced is None or traced["restored"]
    return {
        "correct": wrong == 0 and restored,
        "attempted": attempted,
        "failed": wrong,
        "metrics": metrics,
    }


def per_layer(reps: list[dict], traced: dict, wall: float) -> dict:
    layers = dict(traced["layers"])
    for suite in workloads.SUITES:
        walls = [r["suite_wall_s"][suite] for r in reps if suite in r["suite_wall_s"]]
        layers[f"suites.{suite}.wall_s"] = statistics.median(walls) if walls else 0.0
        layers[f"suites.{suite}.cases"] = reps[0]["suite_cases"].get(suite, 0)
    layers["bench.trace_overhead"] = scaled(traced, "wall_s") / wall
    layers["bench.host_speed"] = statistics.median(r["speed"] for r in reps)
    return {
        name: {"value": layers.get(name, 0), "unit": unit_of(name)}
        for name in tracing.per_layer_names(workloads.SUITES)
    }


def unit_of(name: str) -> str:
    if name.endswith(("self_s", "wall_s")):
        return "s"
    if name.endswith(("ratio", "overhead", "speed")):
        return "ratio"
    return "count"


def _fmt(value: float) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def print_table(name: str, result: dict) -> None:
    metrics = result["metrics"]
    print(f"== {name}: correct={result['correct']} attempted={result['attempted']} "
          f"failed={result['failed']}")
    for metric, mv in metrics.items():
        print(f"  {metric:<44} {_fmt(mv['value']):>14} {mv['unit']}")
        if metric == "pass_share":
            print(f"  {'fail_share':<44} {_fmt(1 - mv['value']):>14} share")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*workloads.WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=workloads.REFERENCE_SEEDS[0],
                        help="workload seed (default: powmon's DEFAULT_SEED)")
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="append one JSON record per workload to this file")
    args = parser.parse_args(argv)

    root = HERE.parent
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for name in names:
            start = time.monotonic()
            raw = measure(root, name, args.seed, args.seconds, bool(args.trace))
            results[name] = summarize(raw, bool(args.trace))
            if args.out:
                record = {"workload": name, "seed": args.seed, "seconds": args.seconds,
                          "trace": args.trace, "result": results[name],
                          "elapsed_s": time.monotonic() - start, "setups": raw["setups"],
                          "raw_walls": [r["wall_s"] for r in raw["reps"]],
                          "speeds": [r["speed"] for r in raw["reps"]]}
                with open(args.out, "a", encoding="utf-8") as fh:
                    fh.write(json.dumps(record, sort_keys=True) + "\n")
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for name, result in results.items():
        print_table(name, result)
    print(json.dumps(results[names[0]] if len(names) == 1 else results, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
