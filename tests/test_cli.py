import contextlib
import copy
import io
import json
import os
import signal
import subprocess
import sys
import tempfile
from functools import partial
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from powmon.ambient import GroupSignature
from powmon.cli import main, parse_expression
from powmon.monoids import (
    ComplementSpec,
    QuadraticSurd,
    composite,
    free_generated,
    full_n0,
    half_plane_lex,
    irrational_cone,
    monoid_to_json,
    numerical,
    to_json,
)
from powmon.powersets import FinSubset1
from powmon.suites import planar_pair
from powmon.translation import DichotomyViolationError, TranslationCheckError

from conftest import torsion_composite_pair


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


def test_power_chains_from_the_left(capsys):
    # {0,1}^2^3 is ({0,1}^2)^3 = {0,1,2}^3, not {0,1}^8 = {0,...,8}
    for text in ("{0,1}^2^3", "({0,1}^2)^3"):
        assert main(["eval", text]) == 0
        assert capsys.readouterr().out.strip() == "{0,1,2,3,4,5,6}"


def test_python_dash_m_runs_the_cli():
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    done = subprocess.run(
        [sys.executable, "-m", "powmon", "eval", "{0,1}*{0,2}"],
        env=env, capture_output=True, text=True,
    )
    assert (done.returncode, done.stdout) == (0, "{0,1,2,3}\n"), done.stderr


def test_closed_stdout_ends_quietly(tmp_path):
    # the reader closes after 10 bytes of a ~100 KB answer; the run ends
    # by SIGPIPE, as cat does, with no BrokenPipeError traceback
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    with open(tmp_path / "stderr", "w+", encoding="utf-8") as err:
        proc = subprocess.Popen(
            [sys.executable, "-m", "powmon", "eval", "{0,1}^20000"],
            env=env, stdout=subprocess.PIPE, stderr=err,
        )
        proc.stdout.read(10)
        proc.stdout.close()
        code = proc.wait(timeout=60)
        err.seek(0)
        assert err.read() == ""
    if hasattr(signal, "SIGPIPE"):
        assert code == -signal.SIGPIPE


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


def test_eval_torsion_elements(tmp_path, capsys):
    # free-z-z3: generated by (1;1) and (2;0) in Z + Z/3
    sig = GroupSignature(1, (3,))
    spec = free_generated(sig, [sig.element((1,), (1,)), sig.element((2,), (0,))], "free-z-z3")
    path = tmp_path / "free-z-z3.json"
    path.write_text(monoid_to_json(spec), encoding="utf-8")
    assert main(["eval", "{(1;1)} * {(1;1)}", "--monoid", str(path)]) == 0
    assert capsys.readouterr().out.strip() == "{(0;0),(1;1),(2;2)}"


def test_eval_json_format(capsys):
    assert main(["eval", "{0,1}", "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc == {"elements": [{"free": [0], "torsion": []}, {"free": [1], "torsion": []}]}


def test_eval_sparse_set_power(capsys):
    # a span of 10**12 per member takes the generic path, never a 10**12-bit mask
    assert main(["eval", "{0,1000000000000}^3", "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert [e["free"] for e in doc["elements"]] == [[k * 10**12] for k in range(4)]


def test_eval_negative_members_match_generic_path(capsys, tmp_path):
    # the same expression scaled by 10**12 is sparse, so it takes the generic path
    z = GroupSignature(1)
    path = tmp_path / "z.json"
    path.write_text(monoid_to_json(free_generated(z, [z.element(1), z.element(-1)], "Z")))
    results = []
    for scale in (1, 10**12):
        sets = [[v * scale for v in values] for values in ([-9, 5], [-1, 2, 7], [-20, 3])]
        text = "{%s}*{%s}^2*{%s}" % tuple(",".join(map(str, values)) for values in sets)
        assert main(["eval", text, "--monoid", str(path), "--format", "json"]) == 0
        results.append([e["free"][0] for e in json.loads(capsys.readouterr().out)["elements"]])
    dense, sparse = results
    assert dense[0] == -31 and [v * 10**12 for v in dense] == sparse


def test_eval_parse_error_exit_3(capsys):
    assert main(["eval", "{0,1"]) == 3
    err = capsys.readouterr().err
    assert "parse error" in err and "position" in err


@pytest.mark.parametrize("text", ["{}", "{1,}"], ids=["empty", "trailing-comma"])
def test_eval_missing_element_exit_3(capsys, text):
    # over N0 an element is a bare integer, so '(' is not the one thing expected
    assert main(["eval", text]) == 3
    err = capsys.readouterr().err
    assert f"position {len(text) - 1}: expected an element, found '}}'" in err, err


@pytest.mark.parametrize("text", ["{²}", "{٣}"], ids=["superscript-two", "arabic-indic-three"])
def test_eval_non_ascii_digit_exit_3(capsys, text):
    # str.isdigit accepts both; an int token is ASCII digits only
    assert main(["eval", text]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: parse error at position 1: ") and err.count("\n") == 1, err


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


@pytest.mark.parametrize("embedding", [[0], [0, 1, 2]], ids=["one", "three"])
def test_analyze_wrong_length_embedding_exit_3(tmp_path, capsys, embedding):
    doc = to_json(half_plane_lex())
    doc["embedding"] = embedding
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["analyze", str(bad)]) == 3
    err = capsys.readouterr().err
    assert f"embedding {tuple(embedding)} invalid for free rank 2" in err, err


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


def test_iso_one_monoid_under_two_labels_exit_0(tmp_path, capsys):
    # the identical-pair template compares specs, not their labels
    paths = []
    for name, spec in (("a", numerical([2, 3], "a")), ("b", numerical([3, 2], "b"))):
        paths.append(tmp_path / f"{name}.json")
        paths[-1].write_text(monoid_to_json(spec), encoding="utf-8")
    argv = ["iso", *map(str, paths), "--suites", "two_sets,cardinality", "--samples", "20"]
    assert main([*argv, "--window", "3"]) == 0, capsys.readouterr().err


def test_iso_negative_control_exit_2(capsys, monoid_files):
    code = main(["iso", monoid_files["num23"], monoid_files["n0"]])
    assert code == 2
    err = capsys.readouterr().err
    assert "APPLICABILITY_FAILED" in err
    assert "template-mismatch" in err


def test_iso_negative_control_names_the_codomain(capsys, monoid_files):
    assert main(["iso", monoid_files["n0"], monoid_files["num23"]]) == 2
    err = capsys.readouterr().err
    assert "template-mismatch" in err and "codomain '<2,3>'" in err


def test_iso_n0_to_minus_n0_exit_0(tmp_path, capsys, monoid_files):
    path = tmp_path / "neg-n0.json"
    z = GroupSignature(1)
    path.write_text(monoid_to_json(free_generated(z, [z.element(-1)], "-N0")), encoding="utf-8")
    suites = "two_sets,cardinality,homomorphism"
    argv = ["iso", monoid_files["n0"], str(path), "--suites", suites, "--samples", "20"]
    assert main([*argv, "--window", "3"]) == 0, capsys.readouterr().err


def test_composite_over_a_group(tmp_path, capsys):
    # Z e0 glued with G.M, G = Z e0 and M generated by e1, e2: the valuation
    # part is a group, so analyze runs and iso refuses the unreduced domain
    z3 = GroupSignature(3)
    e0, e1, e2 = (z3.basis_element(i) for i in range(3))
    line = free_generated(z3, [e0, -e0], "line")
    spec = composite(line, ComplementSpec(z3, (e0,), (e1, e2)), label="glued-line")
    path = tmp_path / "glued-line.json"
    path.write_text(monoid_to_json(spec), encoding="utf-8")
    assert main(["analyze", str(path), "--window", "2", "--format", "json"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert len(out["irreducibles"]) == 10 and out["reducible_count"] == 30
    assert main(["iso", str(path), str(path)]) == 2
    assert "domain-not-reduced" in capsys.readouterr().err


def test_suite_default_target(capsys):
    code = main(["suite", "two_sets", "cardinality", "--samples", "40", "--window", "5"])
    assert code == 0
    out = capsys.readouterr().out
    assert "two_sets" in out and "cardinality" in out


def test_duplicate_suite_names_run_once(capsys, monoid_files):
    for argv in (
        ["iso", monoid_files["halfplane"], monoid_files["cone"], "--suites", "two_sets,two_sets"],
        ["suite", "two_sets", "two_sets"],
    ):
        assert main(argv + ["--samples", "20", "--window", "3"]) == 0
        out = capsys.readouterr().out
        assert out.count("two_sets") == 1, out


def test_suite_unknown_name(capsys, monoid_files):
    assert main(["suite", "bogus"]) == 2
    # an empty --suites names one suite, '', which does not exist
    capsys.readouterr()
    assert main(["iso", monoid_files["halfplane"], monoid_files["cone"], "--suites", ""]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "unknown suite ''" in captured.err


def test_suite_inconclusive_exit_1(capsys, monoid_files):
    num23 = monoid_files["num23"]
    code = main(["iso", num23, num23, "--suites", "one_reversed", "--samples", "30"])
    assert code == 1
    captured = capsys.readouterr()
    assert "INCONCLUSIVE" in captured.out
    assert captured.err == "first failure: suite one_reversed: INCONCLUSIVE\n"


def test_example_rank4_small(capsys):
    code = main(["example-rank4", "--window", "2", "--samples", "40"])
    assert code == 0
    assert "example_rank4" in capsys.readouterr().out


def test_example_rank4_failure_exit_1_names_itself(capsys, monkeypatch):
    import powmon.cli
    from powmon.suites import run_rank4_example

    monkeypatch.setattr(powmon.cli, "run_rank4_example", partial(run_rank4_example, tampered=True))
    assert main(["example-rank4", "--window", "2", "--samples", "40"]) == 1
    captured = capsys.readouterr()
    assert captured.out.startswith("example_rank4  FAIL ")
    assert captured.err == "first failure: suite example_rank4: FAIL\n"


def test_env_seed_overrides_flag(monkeypatch):
    import argparse

    from powmon.cli import _suite_config

    args = argparse.Namespace(seed=7, window=4, samples=20, max_set_size=6)
    monkeypatch.setenv("POWMON_SEED", "424242")
    assert _suite_config(args).seed == 424242
    monkeypatch.delenv("POWMON_SEED")
    assert _suite_config(args).seed == 7


@pytest.mark.parametrize(
    "argv",
    [
        ["analyze", "num23", "--window", "٢"],
        ["example-rank4", "--samples", "²"],
        ["analyze", "num23", "--window", "2_0"],
        ["suite", "two_sets", "--seed", "1٣"],
        ["suite", "two_sets", "--max-set-size", " 2"],
    ],
    ids=["arabic-indic-two", "superscript-two", "underscore", "mixed-digits", "space"],
)
def test_integer_flags_take_ascii_digits_only_exit_2(capsys, monoid_files, argv):
    # int() reads each of these as an integer; a flag reads ASCII digits only
    argv = [monoid_files.get(a, a) for a in argv]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.splitlines()[-1].endswith(f"{argv[-1]!r} is not an integer in ASCII digits"), err


def test_env_seed_takes_ascii_digits_only(monkeypatch, capsys):
    monkeypatch.setenv("POWMON_SEED", "٣")
    assert main(["suite", "two_sets", "--samples", "5", "--window", "2"]) == 2
    err = capsys.readouterr().err
    assert err == "error: POWMON_SEED: '٣' is not an integer in ASCII digits\n"
    monkeypatch.setenv("POWMON_SEED", "-5")
    assert main(["suite", "two_sets", "--samples", "5", "--window", "2"]) == 0


def test_usage_error_exit_2(capsys):
    # suites run on monoid files through iso --suites; suite takes no file flags
    assert main(["suite", "homomorphism", "--domain", "only-one.json"]) == 2
    err = capsys.readouterr().err
    assert err.splitlines()[-1] == (
        "powmon: error: unrecognized arguments: --domain only-one.json"
    ), err


def test_parser_is_built_once(capsys, monkeypatch):
    import argparse

    main(["eval", "{0}"])
    built = []
    init = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    for argv in (["eval", "{0}"], ["eval", "{0,1}^2"], ["analyze"], ["suite", "bogus"]):
        main(argv)
    assert built == []


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
        ("analyze", {"family": "NUMERICAL", "signature": {"free_rank": 1}, "generators": [True, 3]}),
        ("analyze", {"family": "FREE_GENERATED", "signature": {"free_rank": 1}, "generators": 5}),
        ("eval", "(" * 5000 + "{0}" + ")" * 5000),
        ("analyze", {"family": "HALF_PLANE_LEX", "signature": {"free_rank": 2.5}, "embedding": [0, 1]}),
        ("analyze", {"family": "FULL_N0", "signature": {"free_rank": True}}),
        ("analyze", {"family": "FULL_N0", "signature": {"free_rank": 1, "torsion_orders": [3.0]}}),
        ("analyze", {"family": "FREE_GENERATED", "signature": {"free_rank": 1, "torsion_orders": [3]},
                     "generators": [{"free": [1]}]}),
        ("analyze", {"family": "HALF_PLANE_LEX", "signature": {"free_rank": 2}, "embedding": [0, 1.0]}),
        ("analyze", {"family": "FULL_N0", "signature": {"free_rank": 1}, "label": []}),
        ("analyze", {"family": "IRRATIONAL_CONE", "signature": {"free_rank": 2}, "embedding": [0, 1],
                     "alpha": {"p": None, "q": 1, "r": 1, "n": 2}}),
        ("analyze", {"family": "FREE_GENERATED", "signature": {"free_rank": 1}, "generators": "1"}),
        ("analyze", {"family": "FREE_GENERATED", "signature": {"free_rank": 1, "torsion_orders": [3]},
                     "generators": [{"free": [1], "torsion": [1.5]}, {"free": [-1], "torsion": [0]}]}),
        ("analyze", {"family": "FREE_GENERATED", "signature": {"free_rank": 1},
                     "generators": [{"free": [True]}, {"free": [-1]}]}),
        # 10**20 coordinates do not fit an index, so nothing is allocated
        ("analyze", {"family": "FULL_N0", "signature": {"free_rank": 10**20}}),
    ],
    ids=["free-rank-string", "top-level-list", "numerical-generators-int", "numerical-generator-bool",
         "free-generated-generators-int", "deeply-nested-expression",
         "free-rank-float", "free-rank-bool", "torsion-order-float",
         "element-without-torsion", "embedding-float", "label-list", "surd-coefficient-null",
         "free-generated-generators-string", "torsion-coordinate-float",
         "free-coordinate-bool", "free-rank-too-large-to-build"],
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


@pytest.mark.parametrize(
    "argv",
    [["analyze", "FILE"], ["eval", "{0}", "--monoid", "FILE"], ["iso", "FILE", "FILE"]],
    ids=["analyze", "eval-monoid", "iso"],
)
def test_deeply_nested_monoid_file_exit_3(tmp_path, capsys, argv):
    # JSON nested past the decoder's depth is a schema error, not a traceback
    path = tmp_path / "nested.json"
    path.write_text("[" * 100_000, encoding="utf-8")
    assert main([str(path) if a == "FILE" else a for a in argv]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: invalid monoid file ") and err.count("\n") == 1, err


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


@pytest.fixture(scope="module")
def command_files(tmp_path_factory):
    """The monoid files of ``test_command_table``, by file name: the planar
    pair h/k; th and tc, the half plane and the sqrt2 cone on plane (0,2) of
    Z^3 + Z/2 glued with one complement; a copy of -N0; N0; <20,30>."""
    z = GroupSignature(1)
    specs = dict(zip(("h.json", "k.json"), planar_pair()))
    specs.update(zip(("th.json", "tc.json"), torsion_composite_pair()))
    specs.update({
        "minus-n0.json": free_generated(z, [z.element(-1)]),
        "n0.json": full_n0(),
        "num20-30.json": numerical([20, 30]),
    })
    root = tmp_path_factory.mktemp("command-files")
    for name, spec in specs.items():
        (root / name).write_text(monoid_to_json(spec), encoding="utf-8")
    return {name: str(root / name) for name in specs}


#: (argv, environment, exit code, stdout lines).  Stdout is exactly the
#: lines, unless they end in ``...``: then each listed line is one of its lines.
_COMMANDS = {
    "eval-cube": (["eval", "{0,5,7}^3"], {}, 0, ["{0,5,7,10,12,14,15,17,19,21}"]),
    "eval-spaces": (["eval", " { 0 , 5 } ^ 2 "], {}, 0, ["{0,5,10}"]),
    # the reversion of a kernel-built product
    "eval-rev-product": (["eval", "rev({0,1,3}*{0,2})"], {}, 0, ["{0,2,3,4,5}"]),
    "eval-json": (
        ["eval", "{0,2}", "--format", "json"], {}, 0,
        ['{"elements": [{"free": [0], "torsion": []}, {"free": [2], "torsion": []}]}'],
    ),
    # integers take ASCII digits only: POWMON_SEED's is a usage error
    "env-seed-arabic-indic": (["example-rank4"], {"POWMON_SEED": "٣"}, 2, []),
    # exit 0: the rank-4 scenario passes; iso and suite run no FAIL or INCONCLUSIVE suite
    "example-rank4": (["example-rank4"], {}, 0, [...]),
    "iso-planar": (["iso", "h.json", "k.json"], {}, 0, [...]),
    "iso-planar-two-suites": (
        ["iso", "h.json", "k.json", "--suites", "two_sets,cardinality", "--samples", "20",
         "--window", "3"], {}, 0, [...],
    ),
    "suite-two-sets": (["suite", "two_sets", "--samples", "20", "--window", "3"], {}, 0, [...]),
    # suite runs the packaged pair only
    "suite-domain-flag": (["suite", "two_sets", "--domain", "h.json"], {}, 2, []),
    "analyze-torsion-composite": (
        ["analyze", "tc.json", "--window", "2"], {}, 0,
        ["decomposition 13 pseudo-units / 100 complement", ...],
    ),
    # every suite runs the generic set product, which reduces torsion
    "iso-torsion-composites": (
        ["iso", "th.json", "tc.json", "--samples", "50", "--window", "2"], {}, 0, [...],
    ),
    # a valuation monoid by construction, every member a pseudo-unit
    "analyze-minus-n0": (
        ["analyze", "minus-n0.json", "--window", "2"], {}, 0,
        ["valuation     TRUE_ANALYTIC", "decomposition 3 pseudo-units / 0 complement", ...],
    ),
    # <20,30> meets Window(8) in 0 alone; its valuation witness is the gcd
    "analyze-num20-30": (
        ["analyze", "num20-30.json", "--window", "8"], {}, 0,
        ["valuation     FALSE_WITNESS  witness 10", ...],
    ),
}


@pytest.mark.parametrize("name", _COMMANDS)
def test_command_table(capsys, monkeypatch, command_files, name):
    argv, env, code, lines = _COMMANDS[name]
    for key, value in env.items():
        monkeypatch.setenv(key, value)
    assert main([command_files.get(a, a) for a in argv]) == code, capsys.readouterr().err
    out = capsys.readouterr().out
    if lines[-1:] == [...]:
        assert [line for line in lines[:-1] if line not in out.splitlines()] == [], out
    else:
        assert out == "".join(f"{line}\n" for line in lines)


def run_quietly(argv):
    """``main(argv)`` with its output captured: (exit code, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


# ints in -3..9 and at most two powers keep every set below a few thousand members
_ints = st.integers(-3, 9).map(str)
_element_texts = st.one_of(
    _ints, st.lists(_ints, min_size=1, max_size=2).map(lambda xs: f"({','.join(xs)})")
)
_set_literals = st.lists(_element_texts, min_size=1, max_size=4).map(
    lambda xs: "{" + ",".join(xs) + "}"
)
_grammar_expressions = st.recursive(
    _set_literals,
    lambda inner: st.one_of(
        inner.map(lambda e: f"rev({e})"),
        inner.map(lambda e: f"({e})"),
        st.tuples(inner, _ints).map(lambda t: f"({t[0]})^{t[1]}"),
        st.tuples(inner, inner).map(lambda t: f"{t[0]}*{t[1]}"),
    ),
    max_leaves=4,
)
_token_soups = st.lists(
    st.one_of(st.sampled_from(["{", "}", "(", ")", ",", ";", "*", "^", "rev"]), _ints),
    max_size=14,
).map(" ".join)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.one_of(_grammar_expressions, _token_soups).filter(lambda text: text.count("^") <= 2))
def test_eval_fuzz_never_crashes(text):
    code, err = run_quietly(["eval", text])
    assert code in (0, 2, 3), (code, err)
    assert "Traceback" not in err


FAMILIES = ["FULL_N0", "NUMERICAL", "HALF_PLANE_LEX", "IRRATIONAL_CONE", "FREE_GENERATED",
            "COMPOSITE", "NO_SUCH"]
_MISSING = object()
_junk_scalars = st.one_of(
    st.none(), st.booleans(), st.floats(-3, 3, allow_nan=False), st.text("ab1", max_size=2)
)
_junk = st.one_of(
    _junk_scalars, st.integers(-3, 3), st.lists(_junk_scalars, max_size=2), st.just({})
)


def _mostly(valid, *others):
    """``valid`` five times in seven, else one of ``others``.  (``one_of``
    would flatten nested choices and weigh every branch alike.)"""
    return st.integers(0, 6).flatmap(lambda i: valid if i < 5 else others[i % len(others)])


def _field(valid):
    """Mostly a valid value, sometimes junk of a wrong type, sometimes absent."""
    return _mostly(valid, _junk, st.just(_MISSING))


def _ints_or_junk(lo, hi):
    """An int in lo..hi, now and then a scalar of a wrong type."""
    return _mostly(st.integers(lo, hi), _junk_scalars)


def _object(**fields):
    return st.fixed_dictionaries(fields).map(
        lambda d: {k: v for k, v in d.items() if v is not _MISSING}
    )


_fuzz_coords = st.lists(_ints_or_junk(-3, 3), max_size=2)
_fuzz_elements = _object(free=_field(_fuzz_coords), torsion=_field(_fuzz_coords))
_fuzz_signatures = _object(
    free_rank=_field(st.integers(0, 2)),
    torsion_orders=_field(_mostly(st.just([]), st.lists(_ints_or_junk(-1, 3), max_size=1))),
)


def _fuzz_monoids(valuation_part):
    return _object(
        family=_field(st.sampled_from(FAMILIES)),
        label=_field(st.text("ab", max_size=2)),
        signature=_field(_fuzz_signatures),
        generators=_field(st.one_of(
            st.lists(_ints_or_junk(-3, 3), max_size=3), st.lists(_fuzz_elements, max_size=3)
        )),
        embedding=_field(st.lists(_ints_or_junk(-1, 2), min_size=2, max_size=2)),
        alpha=_field(_object(**{k: _field(_ints_or_junk(-3, 3)) for k in "pqrn"})),
        valuation_part=_field(valuation_part),
        complement_part=_field(_object(
            base_subgroup=_field(st.lists(_fuzz_elements, max_size=2)),
            positive_generators=_field(st.lists(_fuzz_elements, max_size=3)),
        )),
    )


_z1, _z2, _z_z3 = GroupSignature(1), GroupSignature(2), GroupSignature(1, (3,))
#: one valid monoid file of each family, free rank <= 2
VALID_DOCS = [
    to_json(spec)
    for spec in (
        full_n0(),
        numerical([2, 3]),
        half_plane_lex(),
        irrational_cone(QuadraticSurd(0, 1, 1, 2)),
        free_generated(_z2, [_z2.element((1, 0)), _z2.element((1, 1))]),
        free_generated(_z_z3, [_z_z3.element(1, (1,)), _z_z3.element(-1, (0,))]),
        composite(numerical([]), ComplementSpec(_z1, (), (_z1.element(2), _z1.element(3)))),
    )
]


@st.composite
def _mutated_docs(draw):
    """A valid monoid file with one or two entries deleted, retyped or
    replaced by a small int, or its family tag swapped."""
    doc = copy.deepcopy(draw(st.sampled_from(VALID_DOCS)))
    for _ in range(draw(st.integers(1, 2))):
        node = doc
        while node:
            key = draw(st.sampled_from(list(node) if isinstance(node, dict) else range(len(node))))
            child = node[key]
            if isinstance(child, (dict, list)) and child and draw(st.booleans()):
                node = child
                continue
            action = draw(st.sampled_from(["delete", "junk", "int", "family"]))
            if action == "delete":
                del node[key]
            elif action == "family":
                doc["family"] = draw(st.sampled_from(FAMILIES))
            else:
                node[key] = draw(_junk if action == "junk" else st.integers(-3, 3))
            break
    return doc


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.one_of(_fuzz_monoids(_fuzz_monoids(_junk)), _mutated_docs()))
def test_analyze_fuzz_never_crashes(doc):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "fuzz.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        code, err = run_quietly(["analyze", str(path), "--window", "1"])
    assert code in (0, 2, 3), (code, err)
    assert "Traceback" not in err
