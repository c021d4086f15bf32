"""One repetition of one workload, in a fresh interpreter.

    python3 perfbench/child.py --workload W --seed N --root DIR --mode MODE

MODE is ``run`` (setup, then the timed body), ``setup`` (setup only),
``trace`` (a run with the per-layer tracer installed) or ``record`` (a
run that skips the reference check, for writing references.json).
``setup_s`` and ``wall_s`` are raw seconds; ``speed`` is the host speed
measured during the repetition (see hostspeed.py).
The program measured is ``DIR/src/powmon``.  The last line of standard
output is one JSON object; a missing package or a crash exits non-zero.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--root", required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--mode", choices=("run", "setup", "trace", "record"), default="run")
    args = parser.parse_args(argv)

    src = Path(args.root).resolve() / "src"
    if not (src / "powmon" / "__init__.py").is_file():
        print(f"error: no powmon package under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))

    import workloads

    workload = workloads.make(args.workload)
    references = None if args.mode == "record" else workloads.load_references()
    state = workload.prepare(args.seed, Path(args.workdir), references)

    import hostspeed

    sampler = hostspeed.Sampler()
    sampler.start()
    t0 = time.perf_counter()
    import powmon
    import powmon.cli  # noqa: F401

    tracer = None
    if args.mode == "trace":
        import tracing

        tracer = tracing.Tracer()
        tracer.install()
    workload.setup(state)
    out: dict = {"setup_s": time.perf_counter() - t0 - sampler.spent}
    if not Path(powmon.__file__).resolve().is_relative_to(src):
        print(f"error: imported powmon from {powmon.__file__}, not {src}", file=sys.stderr)
        return 2

    if args.mode != "setup":
        tally = workloads.Tally()
        tally.sampler = sampler
        workload.body(state, tally)
        out.update(
            wall_s=tally.wall_s,
            ops=tally.ops,
            attempted=tally.attempted,
            wrong=tally.wrong,
            failed=tally.failed,
            outputs=tally.outputs,
            suite_wall_s=tally.suite_wall_s,
            suite_cases=tally.suite_cases,
            errors=tally.errors,
        )
    sampler.stop()
    out["speed"] = sampler.speed()
    out["probe_samples"] = len(sampler.samples)
    if tracer is not None:
        out["layers"] = tracer.metrics()
        patched = tracer.patched_attributes()
        tracer.uninstall()
        out["restored"] = tracing.is_restored(patched)
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(out, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
