"""Write references.json: the canonical-JSON digest of every suite report
(for each reference seed) and of every ``analyze`` document.

    python3 perfbench/record_references.py

Run it on the commit whose outputs are the reference.  A change that
means to alter a report updates this file in its own benchmark change.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads  # noqa: E402


def main() -> int:
    root = HERE.parent
    workdir = HERE / "work"
    workdir.mkdir(exist_ok=True)
    refs: dict = {}
    for name in workloads.ISO_PAIRS:
        refs[name] = {}
        for seed in workloads.REFERENCE_SEEDS:
            out = run.run_child(root, workdir, name, seed, "record")
            refs[name][str(seed)] = out["outputs"]
            print(name, seed, f"{out['wall_s']:.2f} s", file=sys.stderr)
    out = run.run_child(root, workdir, "analyze_mix", workloads.REFERENCE_SEEDS[0], "record")
    refs["analyze_mix"] = out["outputs"]
    text = json.dumps(refs, sort_keys=True, indent=1) + "\n"
    workloads.REFERENCES_PATH.write_text(text, encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
