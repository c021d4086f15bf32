import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from powmon.cli import main, parse_expression
from powmon.monoids import monoid_to_json
from powmon.powersets import FinSubset1
from powmon.translation import DichotomyViolationError, TranslationCheckError


@pytest.fixture()
def monoid_files(tmp_path, n0, num23, halfplane, cone_sqrt2):
    paths = {}
    for name, spec in (
        ("n0", n0),
        ("num23", num23),
        ("halfplane", halfplane),
        ("cone", cone_sqrt2),
    ):
        p = tmp_path / f"{name}.json"
        p.write_text(monoid_to_json(spec), encoding="utf-8")
        paths[name] = str(p)
    return paths


def test_eval_power(capsys):
    assert main(["eval", "{0,1}^3"]) == 0
    assert capsys.readouterr().out.strip() == "{0,1,2,3}"


def test_python_dash_m_runs_the_cli():
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    done = subprocess.run(
        [sys.executable, "-m", "powmon", "eval", "{0,1}*{0,2}"],
        env=env, capture_output=True, text=True,
    )
    assert (done.returncode, done.stdout) == (0, "{0,1,2,3}\n"), done.stderr


def test_eval_product(capsys):
    assert main(["eval", "{0} * {0,5}"]) == 0
    assert capsys.readouterr().out.strip() == "{0,5}"


def test_eval_rev(capsys):
    assert main(["eval", "rev({0,1,3})"]) == 0
    assert capsys.readouterr().out.strip() == "{0,2,3}"


def test_eval_round_trip(capsys, n0):
    exprs = ["{0,1}^3", "rev({0,2,5,6})", "{0,1} * {0,4} * {0,2}^2"]
    for expr in exprs:
        assert main(["eval", expr]) == 0
        printed = capsys.readouterr().out.strip()
        reparsed = parse_expression(printed, n0)
        direct = parse_expression(expr, n0)
        assert reparsed == direct
        assert repr(reparsed) == printed


def test_eval_tuples_over_halfplane(capsys, monoid_files):
    code = main(["eval", "{(0,0),(1,1)} * {(0,0),(-2,1)}", "--monoid", monoid_files["halfplane"]])
    assert code == 0
    assert capsys.readouterr().out.strip() == "{(-2,1),(-1,2),(0,0),(1,1)}"


def test_eval_json_format(capsys):
    assert main(["eval", "{0,1}", "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc == {"elements": [{"free": [0], "torsion": []}, {"free": [1], "torsion": []}]}


def test_eval_parse_error_exit_3(capsys):
    assert main(["eval", "{0,1"]) == 3
    err = capsys.readouterr().err
    assert "parse error" in err and "position" in err


def test_eval_membership_violation_names_element(capsys, monoid_files):
    code = main(["eval", "{0,1}", "--monoid", monoid_files["num23"]])
    assert code == 2
    assert "1" in capsys.readouterr().err


def test_eval_rev_requires_n0(capsys, monoid_files):
    code = main(["eval", "rev({(0,0),(1,1)})", "--monoid", monoid_files["halfplane"]])
    assert code == 2


def test_analyze_numerical(capsys, monoid_files):
    assert main(["analyze", monoid_files["num23"], "--window", "12"]) == 0
    out = capsys.readouterr().out
    assert "FALSE_WITNESS" in out
    assert "witness 1" in out
    assert "2 [IRREDUCIBLE_UP_TO_WINDOW]" in out


def test_analyze_json(capsys, monoid_files):
    assert main(["analyze", monoid_files["halfplane"], "--window", "4", "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["valuation"]["status"] == "TRUE_ANALYTIC"
    assert doc["decomposition"]["complement_count"] == 0
    assert doc["units"] == [{"free": [0, 0], "torsion": []}]


def test_analyze_invalid_file_exit_3(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{\"family\": \"NO_SUCH\"}", encoding="utf-8")
    assert main(["analyze", str(bad)]) == 3


def test_iso_planar_pair_exit_0(capsys, monoid_files):
    code = main(
        [
            "iso",
            monoid_files["halfplane"],
            monoid_files["cone"],
            "--samples",
            "60",
            "--window",
            "6",
        ]
    )
    out = capsys.readouterr().out
    assert code == 0, out
    assert "homomorphism" in out and "PASS" in out


def test_iso_negative_control_exit_2(capsys, monoid_files):
    code = main(["iso", monoid_files["num23"], monoid_files["n0"]])
    assert code == 2
    err = capsys.readouterr().err
    assert "APPLICABILITY_FAILED" in err
    assert "template-mismatch" in err


def test_suite_default_target(capsys):
    code = main(["suite", "two_sets", "cardinality", "--samples", "40", "--window", "5"])
    assert code == 0
    out = capsys.readouterr().out
    assert "two_sets" in out and "cardinality" in out


def test_suite_unknown_name(capsys):
    assert main(["suite", "bogus"]) == 2


def test_suite_inconclusive_exit_1(capsys, monoid_files):
    code = main(
        [
            "suite",
            "one_reversed",
            "--domain",
            monoid_files["num23"],
            "--codomain",
            monoid_files["num23"],
            "--samples",
            "30",
        ]
    )
    assert code == 1
    assert "INCONCLUSIVE" in capsys.readouterr().out


def test_example_rank4_small(capsys):
    code = main(["example-rank4", "--window", "2", "--samples", "40"])
    assert code == 0
    assert "example_rank4" in capsys.readouterr().out


def test_env_seed_overrides_flag(monkeypatch):
    import argparse

    from powmon.cli import _suite_config

    args = argparse.Namespace(seed=7, window=4, samples=20, max_set_size=6)
    monkeypatch.setenv("POWMON_SEED", "424242")
    assert _suite_config(args).seed == 424242
    monkeypatch.delenv("POWMON_SEED")
    assert _suite_config(args).seed == 7


def test_usage_error_exit_2(capsys):
    assert main(["suite", "homomorphism", "--domain", "only-one.json"]) == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["eval", "{0}", "--seed", "1"],
        ["eval", "{0}", "--window", "3"],
        ["analyze", "num23", "--samples", "5"],
        ["analyze", "num23", "--max-set-size", "2"],
    ],
)
def test_flags_a_subcommand_does_not_read_exit_2(capsys, monoid_files, argv):
    argv = [monoid_files.get(a, a) for a in argv]
    assert main(argv) == 2
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize(
    "error",
    [
        TranslationCheckError("translate left the codomain"),
        DichotomyViolationError("image matches neither pattern"),
        AssertionError("identity is not classified as a pseudo-unit"),
    ],
    ids=lambda e: type(e).__name__,
)
def test_internal_error_exit_4(capsys, monkeypatch, error):
    import powmon.cli

    def broken(args):
        raise error

    monkeypatch.setattr(powmon.cli, "cmd_eval", broken)
    assert main(["eval", "{0}"]) == 4
    err = capsys.readouterr().err
    assert err == f"internal error: {error}\n"
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "command, payload",
    [
        ("analyze", {"family": "FULL_N0", "label": "n0", "signature": {"free_rank": "1"}}),
        ("analyze", [{"family": "FULL_N0", "signature": {"free_rank": 1}}]),
        ("analyze", {"family": "NUMERICAL", "signature": {"free_rank": 1}, "generators": 5}),
        ("analyze", {"family": "FREE_GENERATED", "signature": {"free_rank": 1}, "generators": 5}),
        ("eval", "(" * 5000 + "{0}" + ")" * 5000),
        ("analyze", {"family": "HALF_PLANE_LEX", "signature": {"free_rank": 2.5}, "embedding": [0, 1]}),
        ("analyze", {"family": "FULL_N0", "signature": {"free_rank": True}}),
        ("analyze", {"family": "FULL_N0", "signature": {"free_rank": 1, "torsion_orders": [3.0]}}),
        ("analyze", {"family": "FREE_GENERATED", "signature": {"free_rank": 1, "torsion_orders": [3]},
                     "generators": [{"free": [1]}]}),
    ],
    ids=["free-rank-string", "top-level-list", "numerical-generators-int",
         "free-generated-generators-int", "deeply-nested-expression",
         "free-rank-float", "free-rank-bool", "torsion-order-float",
         "element-without-torsion"],
)
def test_malformed_input_exit_3(tmp_path, capsys, command, payload):
    # exit 1 is reserved for property failures: bad input is a parse error
    if command == "analyze":
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(payload), encoding="utf-8")
        payload = str(path)
    assert main([command, payload]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err


def test_unreadable_monoid_path_exit_2(tmp_path, capsys):
    # a directory is an OSError other than FileNotFoundError: a usage error
    assert main(["analyze", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err


def test_iso_on_trivial_monoid_is_inconclusive(tmp_path, capsys):
    # {0} has no non-identity member to sample: every sampled suite runs no
    # case, the four suites that need units or torsion are NOT_APPLICABLE
    path = tmp_path / "zero.json"
    zero = {"family": "NUMERICAL", "signature": {"free_rank": 1}, "generators": []}
    path.write_text(json.dumps(zero), encoding="utf-8")
    assert main(["iso", str(path), str(path), "--format", "json"]) == 1
    captured = capsys.readouterr()
    not_applicable = {"pullback_unit_inverses", "torsion_products", "units_not_reversed",
                      "nothing_reversed"}
    reports = json.loads(captured.out)
    assert len(reports) == 16
    for r in reports:
        verdict = "NOT_APPLICABLE" if r["suite"] in not_applicable else "INCONCLUSIVE"
        assert (r["verdict"], r["cases"], r["failures"]) == (verdict, 0, []), r
    assert captured.err.startswith("first failure: ") and captured.err.count("\n") == 1


def test_analyze_composite_with_trivial_valuation_part(tmp_path, capsys):
    doc = {
        "family": "COMPOSITE",
        "signature": {"free_rank": 1},
        "valuation_part": {"family": "NUMERICAL", "signature": {"free_rank": 1}, "generators": []},
        "complement_part": {
            "base_subgroup": [],
            "positive_generators": [{"free": [2], "torsion": []}, {"free": [3], "torsion": []}],
        },
    }
    path = tmp_path / "glued.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["analyze", str(path), "--window", "10", "--format", "json"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["irreducibles"] == [
        {"element": {"free": [x], "torsion": []}, "status": "IRREDUCIBLE_ANALYTIC"} for x in (2, 3)
    ]
    assert out["reducible_count"] == 7


def test_analyze_composite_scans_for_a_non_unit_once(tmp_path, capsys, rank4_h, monkeypatch):
    from powmon import structure

    path = tmp_path / "rank4-H.json"
    path.write_text(monoid_to_json(rank4_h), encoding="utf-8")
    scans = []
    original = structure.witness_search_order
    monkeypatch.setattr(
        structure, "witness_search_order", lambda *args: scans.append(args) or original(*args)
    )
    structure._first_nonunit.cache_clear()
    assert main(["analyze", str(path), "--window", "3", "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    # every complement member borrows the same non-unit of the valuation part
    assert doc["reducible_count"] > 1
    assert len(scans) == 1
