"""Tests of the benchmark itself.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import powmon  # noqa: E402
import refimpl  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def test_int_reference_agrees_with_powmon_on_hand_computed_case():
    n0 = powmon.full_n0()
    x = powmon.FinSubset1.from_ints(n0, [0, 1, 3])
    y = powmon.FinSubset1.from_ints(n0, [0, 2])
    product = refimpl.product(refimpl.mask((0, 1, 3)), refimpl.mask((0, 2)))
    assert refimpl.members(product) == (0, 1, 2, 3, 5)
    assert powmon.set_product(x, y).ints() == (0, 1, 2, 3, 5)
    assert refimpl.members(refimpl.reversion(refimpl.mask((0, 1, 3)))) == (0, 2, 3)
    assert powmon.reversion(x).ints() == (0, 2, 3)


def test_int_reference_divides_and_powers():
    assert refimpl.divisible((0, 1), tuple(range(16)))
    assert not refimpl.divisible((0, 1), tuple(range(15)) + (16,))
    assert refimpl.is_witness((0, 1), tuple(range(16)), (0, 2, 4, 6, 8, 10, 12, 14))
    assert refimpl.members(refimpl.power(refimpl.mask((0, 1)), 3)) == (0, 1, 2, 3)
    assert refimpl.power(refimpl.mask((0, 2, 3)), 0) == 1
    assert refimpl.quotient_entries((0, 1, 3)) == ((1, 1), (2, 1), (3, 1))


def _rep(tally: workloads.Tally) -> dict:
    return {"setup_s": 0.1, "wall_s": 1.0, "speed": 1.0, "ops": 1, "peak_rss_mb": 20.0,
            "attempted": tally.attempted, "wrong": tally.wrong, "failed": tally.failed,
            "suite_wall_s": {}, "suite_cases": {}}


def test_perturbed_report_fails_outputs_ok():
    iso = powmon.planar_iso()
    cfg = powmon.SuiteConfig(seed=workloads.REFERENCE_SEEDS[0])
    report = powmon.run_suite("two_sets", iso, cfg).to_json_dict()
    reference = workloads.load_references()["planar_iso"][str(cfg.seed)]["two_sets"]
    perturbed = dict(report, cases=report["cases"] + 1)

    tally = workloads.Tally()
    tally.check(workloads.canonical_digest(report) == reference)
    tally.check(workloads.canonical_digest(perturbed) == reference)
    assert (tally.attempted, tally.wrong) == (2, 1)

    result = run.summarize({"reps": [_rep(tally)], "setups": [0.1], "traced": None}, trace=False)
    assert result["metrics"]["outputs_ok"]["value"] == 0.5
    assert result["failed"] == 1
    assert result["correct"] is False


def test_failed_verdict_counts_against_pass_share_only():
    tally = workloads.Tally()
    tally.check(True, passed=True)
    tally.check(True, passed=False)  # matches the reference, verdict INCONCLUSIVE
    result = run.summarize({"reps": [_rep(tally)], "setups": [0.1], "traced": None}, trace=False)
    assert result["metrics"]["outputs_ok"]["value"] == 1.0
    assert result["metrics"]["pass_share"]["value"] == 0.5
    assert result["correct"] is True


def test_traced_run_restores_every_wrapped_attribute():
    import powmon.cli  # noqa: F401

    before = {name: dict(vars(mod)) for name, mod in sys.modules.items()
              if name == "powmon" or name.startswith("powmon.")}
    tracer = tracing.Tracer()
    tracer.install()
    try:
        patched = tracer.patched_attributes()
        owners = {(getattr(o, "__name__", None), a) for o, a, _ in patched}
        # the package's own extra bindings are wrapped too
        for binding in [("powmon.suites", "apply_iso"), ("powmon.suites", "pullback"),
                        ("powmon.suites", "set_product"), ("powmon.monoids", "lattice_residue"),
                        ("powmon", "set_product")]:
            assert binding in owners
        iso = powmon.planar_iso()
        cfg = powmon.SuiteConfig(sample_count=20)
        powmon.run_suite("homomorphism", iso, cfg)
        metrics = tracer.metrics()
    finally:
        tracer.uninstall()
    assert tracing.is_restored(patched)
    assert metrics["ambient.add.calls"] > 0
    assert metrics["translation.apply_iso.calls"] > 0
    after = {name: dict(vars(mod)) for name, mod in sys.modules.items() if name in before}
    for name, attrs in before.items():
        for attr, value in attrs.items():
            assert after[name][attr] is value, f"{name}.{attr} not restored"


def test_benchmark_json_lists_what_the_runs_report():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [m["name"] for m in spec["end_to_end"]] == [name for name, _ in run.END_TO_END]
    assert [m["unit"] for m in spec["end_to_end"]] == [unit for _, unit in run.END_TO_END]
    names = tracing.per_layer_names(workloads.SUITES)
    assert [m["name"] for m in spec["per_layer"]] == names
    assert [m["unit"] for m in spec["per_layer"]] == [run.unit_of(n) for n in names]
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
