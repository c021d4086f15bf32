"""Compare two commits on the benchmark, in alternating pairs.

    python3 perfbench/compare.py --base DIR --head DIR [--workload W ...]
        [--pairs 10] [--seed N] [--seconds S] [--out FILE]
    python3 perfbench/compare.py --load FILE

Both sides run this copy of the benchmark; only the measured package
(``DIR/src/powmon``) differs.  Pair i runs seed N + i on both sides,
base first in even pairs and head first in odd ones.  To check a claim
on a seed not used while writing the change, pass a fresh ``--seed``.

For every workload and end-to-end metric the report gives each side's
median and quartiles, the share of pairs the head wins (ties count for
neither side), and a verdict:

* ``improved``: the head wins at least 9 in 10 pairs and the medians
  differ by more than the base's own quartile distance;
* ``unresolved``: the base's quartile distance, as a share of its
  median, exceeds the metric's bound, and not every head run beats
  every base run;
* ``regressed``: the head's median is worse than the base's by more
  than the bound;
* ``within bound`` otherwise.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads  # noqa: E402

SIDES = ("base", "head")


def end_to_end_spec() -> dict[str, dict]:
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m for m in spec["end_to_end"]}


def run_pairs(roots: dict[str, Path], names, pairs: int, seed: int, seconds: float, out):
    records = []
    for i in range(pairs):
        order = SIDES if i % 2 == 0 else SIDES[::-1]
        for name in names:
            for side in order:
                raw = run.measure(roots[side], name, seed + i, seconds, trace=False)
                rec = {"side": side, "pair": i, "seed": seed + i, "workload": name,
                       "result": run.summarize(raw, trace=False)}
                records.append(rec)
                if out:
                    with open(out, "a", encoding="utf-8") as fh:
                        fh.write(json.dumps(rec, sort_keys=True) + "\n")
    return records


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def verdict(base: list[float], head: list[float], wins: float, better: str, bound: float) -> str:
    sign = 1 if better == "higher" else -1
    b1, bmed, b3 = _quartiles(base)
    hmed = statistics.median(head)
    gain = sign * (hmed - bmed)
    if wins >= 0.9 and gain > b3 - b1:
        return "improved"
    spread = (b3 - b1) / abs(bmed) if bmed else 0.0
    head_beats_all = all(sign * (h - b) > 0 for h in head for b in base)
    if spread > bound and not head_beats_all:
        return "unresolved"
    if -gain > bound * abs(bmed):
        return "regressed"
    return "within bound"


def report(records: list[dict]) -> list[str]:
    spec = end_to_end_spec()
    lines = []
    for name in dict.fromkeys(r["workload"] for r in records):
        mine = [r for r in records if r["workload"] == name]
        pairs = sorted({r["pair"] for r in mine})
        lines.append(f"== {name}: {len(pairs)} pairs")
        lines.append(f"  {'metric':<12} {'base q1/med/q3':>30} {'head q1/med/q3':>30}  wins  verdict")
        for metric, m in spec.items():
            by = {s: {r["pair"]: r["result"]["metrics"][metric]["value"]
                      for r in mine if r["side"] == s} for s in SIDES}
            common = [p for p in pairs if p in by["base"] and p in by["head"]]
            if not common:
                continue
            base = [by["base"][p] for p in common]
            head = [by["head"][p] for p in common]
            sign = 1 if m["better"] == "higher" else -1
            won = sum(1 for b, h in zip(base, head) if sign * (h - b) > 0)
            wins = won / len(common)
            v = verdict(base, head, wins, m["better"], m["bound"])
            fb = "/".join(f"{x:.4g}" for x in _quartiles(base))
            fh = "/".join(f"{x:.4g}" for x in _quartiles(head))
            lines.append(f"  {metric:<12} {fb:>30} {fh:>30}  {wins:4.0%}  {v}")
        failed = {s: sum(r["result"]["failed"] for r in mine if r["side"] == s) for s in SIDES}
        lines.append(f"  failed operations: base {failed['base']}, head {failed['head']}")
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", help="checkout of the parent commit")
    parser.add_argument("--head", help="checkout of the change")
    parser.add_argument("--workload", action="append", choices=workloads.WORKLOADS)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--out", help="append every run's record to this file")
    parser.add_argument("--load", action="append", help="report records saved with --out")
    args = parser.parse_args(argv)

    if args.load:
        records = [json.loads(line) for path in args.load
                   for line in Path(path).read_text(encoding="utf-8").splitlines() if line]
    elif args.base and args.head:
        roots = {"base": Path(args.base).resolve(), "head": Path(args.head).resolve()}
        names = args.workload or workloads.WORKLOADS
        try:
            records = run_pairs(roots, names, args.pairs, args.seed, args.seconds, args.out)
        except run.BenchError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
    else:
        parser.error("give --base and --head, or --load")
    print("\n".join(report(records)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
