"""Command-line front end.

Subcommands:

* ``eval``          -- evaluate a power-monoid expression over a monoid;
* ``analyze``       -- units, valuation verdict, irreducibles and the
                       pseudo-unit decomposition of a monoid in a window;
* ``iso``           -- build the translation isomorphism between two
                       monoid files and run the property suites;
* ``suite``         -- run named suites (against the packaged planar
                       pair unless monoid files are given);
* ``example-rank4`` -- the packaged rank-4 scenario.

Exit codes are a stable contract: 0 all checks passed, 1 property
failure or inconclusive run, 2 applicability or usage error, 3 parse
error.  The environment variable POWMON_SEED, when set, overrides the
sampling seed (including an explicit --seed).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass

from .ambient import GroupElement, SignatureMismatchError
from .monoids import (
    MonoidSpec,
    Window,
    element_to_dict,
    elements_in_window,
    full_n0,
    is_valuation,
    load_monoid_file,
    units,
)
from .powersets import (
    FinSubset1,
    MembershipError,
    MonoidMismatchError,
    reversion,
    set_power,
    set_product,
)
from .structure import IrreducibleStatus, decompose, is_irreducible, is_unit
from .suites import (
    SUITE_NAMES,
    SuiteConfig,
    Verdict,
    format_reports,
    planar_iso,
    run_rank4_example,
    run_suite,
    verify_iso,
)
from .translation import ApplicabilityError, build_translation_iso

__all__ = ["main", "console", "ParseError", "parse_expression"]

EXIT_OK = 0
EXIT_PROPERTY_FAILURE = 1
EXIT_USAGE = 2
EXIT_PARSE = 3


class ParseError(ValueError):
    def __init__(self, message: str, position: int):
        self.position = position
        super().__init__(f"parse error at position {position}: {message}")


# ---------------------------------------------------------------------------
# Expression grammar:
#   expr    := term { '*' term }
#   term    := factor { '^' INT }
#   factor  := setlit | 'rev' '(' expr ')' | '(' expr ')'
#   setlit  := '{' element { ',' element } '}'
#   element := INT | '(' INT {',' INT} [';' INT {',' INT}] ')'
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _Token:
    kind: str
    text: str
    pos: int


def _tokenize(text: str) -> list[_Token]:
    tokens = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch in "{}(),;*^":
            tokens.append(_Token(ch, ch, i))
            i += 1
            continue
        if ch.isdigit() or (ch == "-" and i + 1 < len(text) and text[i + 1].isdigit()):
            j = i + 1
            while j < len(text) and text[j].isdigit():
                j += 1
            tokens.append(_Token("int", text[i:j], i))
            i = j
            continue
        if text.startswith("rev", i):
            tokens.append(_Token("rev", "rev", i))
            i += 3
            continue
        raise ParseError(f"unexpected character {ch!r}", i)
    tokens.append(_Token("eof", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, text: str, monoid: MonoidSpec):
        self.tokens = _tokenize(text)
        self.monoid = monoid
        self.idx = 0

    def peek(self) -> _Token:
        return self.tokens[self.idx]

    def next(self) -> _Token:
        tok = self.tokens[self.idx]
        self.idx += 1
        return tok

    def expect(self, kind: str) -> _Token:
        tok = self.next()
        if tok.kind != kind:
            raise ParseError(f"expected {kind!r}, found {tok.text or 'end of input'!r}", tok.pos)
        return tok

    def parse(self) -> FinSubset1:
        result = self.parse_expr()
        tok = self.peek()
        if tok.kind != "eof":
            raise ParseError(f"trailing input {tok.text!r}", tok.pos)
        return result

    def parse_expr(self) -> FinSubset1:
        result = self.parse_term()
        while self.peek().kind == "*":
            self.next()
            result = set_product(result, self.parse_term())
        return result

    def parse_term(self) -> FinSubset1:
        result = self.parse_factor()
        while self.peek().kind == "^":
            self.next()
            tok = self.expect("int")
            n = int(tok.text)
            if n < 0:
                raise ParseError("set powers need a non-negative exponent", tok.pos)
            result = set_power(result, n)
        return result

    def parse_factor(self) -> FinSubset1:
        tok = self.peek()
        if tok.kind == "{":
            return self.parse_setlit()
        if tok.kind == "rev":
            self.next()
            self.expect("(")
            inner = self.parse_expr()
            self.expect(")")
            return reversion(inner)
        if tok.kind == "(":
            self.next()
            inner = self.parse_expr()
            self.expect(")")
            return inner
        raise ParseError(f"expected a set literal, found {tok.text or 'end of input'!r}", tok.pos)

    def parse_setlit(self) -> FinSubset1:
        self.expect("{")
        elements = [self.parse_element()]
        while self.peek().kind == ",":
            self.next()
            elements.append(self.parse_element())
        self.expect("}")
        return FinSubset1.make(self.monoid, elements)

    def parse_element(self) -> GroupElement:
        sig = self.monoid.signature
        tok = self.peek()
        if tok.kind == "int":
            self.next()
            if sig.free_rank != 1 or sig.torsion_orders:
                raise ParseError(
                    "bare integers denote elements only in the ambient group Z", tok.pos
                )
            return sig.element(int(tok.text))
        opening = self.expect("(")
        free = [int(self.expect("int").text)]
        while self.peek().kind == ",":
            self.next()
            free.append(int(self.expect("int").text))
        torsion = []
        if self.peek().kind == ";":
            self.next()
            torsion.append(int(self.expect("int").text))
            while self.peek().kind == ",":
                self.next()
                torsion.append(int(self.expect("int").text))
        self.expect(")")
        try:
            return sig.element(tuple(free), tuple(torsion))
        except ValueError as exc:
            raise ParseError(str(exc), opening.pos) from exc


def parse_expression(text: str, monoid: MonoidSpec) -> FinSubset1:
    parser = _Parser(text, monoid)
    try:
        return parser.parse()
    except RecursionError:
        raise ParseError("expression nested too deeply", parser.peek().pos) from None


# ---------------------------------------------------------------------------
# Commands.
# ---------------------------------------------------------------------------


def _load_monoid(path: str | None) -> MonoidSpec:
    if path is None:
        return full_n0()
    try:
        return load_monoid_file(path)
    except FileNotFoundError:
        raise _UsageError(f"monoid file not found: {path}")
    except OSError as exc:
        raise _UsageError(f"cannot read monoid file {path}: {exc.strerror or exc}")
    except (ValueError, KeyError, json.JSONDecodeError) as exc:
        raise _SchemaError(f"invalid monoid file {path}: {exc}")


class _UsageError(Exception):
    pass


class _SchemaError(Exception):
    pass


def _suite_config(args) -> SuiteConfig:
    seed = args.seed
    env_seed = os.environ.get("POWMON_SEED")
    if env_seed is not None:
        seed = int(env_seed)
    return SuiteConfig(
        seed=seed,
        window_bound=args.window,
        sample_count=args.samples,
        max_set_size=args.max_set_size,
    )


def cmd_eval(args) -> int:
    monoid = _load_monoid(args.monoid)
    result = parse_expression(args.expression, monoid)
    if args.format == "json":
        elements = [element_to_dict(u) for u in result.elements]
        print(json.dumps({"elements": elements}, sort_keys=True))
    else:
        print(repr(result))
    return EXIT_OK


def cmd_analyze(args) -> int:
    monoid = _load_monoid(args.monoid_file)
    window = Window(args.window)
    verdict = is_valuation(monoid, window)
    unit_list = units(monoid, window)
    members = elements_in_window(monoid, window)
    irreducible = []
    reducible = 0
    for u in members:
        if u.is_identity() or is_unit(monoid, u):
            continue
        v = is_irreducible(monoid, u, window)
        if v.status is IrreducibleStatus.REDUCIBLE:
            reducible += 1
        else:
            irreducible.append((u, v.status))
    report = decompose(monoid, window)
    doc = {
        "monoid": monoid.label,
        "window": window.bound,
        "member_count": len(members),
        "valuation": {
            "status": verdict.status.value,
            **({"witness": element_to_dict(verdict.witness)} if verdict.witness else {}),
        },
        "units": [element_to_dict(u) for u in unit_list],
        "irreducibles": [
            {"element": element_to_dict(u), "status": status.value} for u, status in irreducible
        ],
        "reducible_count": reducible,
        "decomposition": {
            "pseudo_unit_count": len(report.pseudo_units),
            "complement_count": len(report.complement),
            "unknown_count": len(report.unknown),
            "pseudo_units": [element_to_dict(u) for u in report.pseudo_units],
        },
    }
    if args.format == "json":
        print(json.dumps(doc, sort_keys=True, indent=2))
    else:
        print(f"monoid        {monoid.label}")
        print(f"window        {window.bound}  ({len(members)} members)")
        witness = f"  witness {verdict.witness!r}" if verdict.witness else ""
        print(f"valuation     {verdict.status.value}{witness}")
        print(f"units         {{{','.join(map(repr, unit_list))}}}")
        irr = ", ".join(f"{u!r} [{s.value}]" for u, s in irreducible) or "none found"
        print(f"irreducibles  {irr}")
        print(f"reducible     {reducible} elements factor into non-units")
        print(
            "decomposition "
            f"{len(report.pseudo_units)} pseudo-units / {len(report.complement)} complement"
            + (f" / {len(report.unknown)} unknown" if report.unknown else "")
        )
        shown = ",".join(map(repr, report.pseudo_units[:12]))
        more = "..." if len(report.pseudo_units) > 12 else ""
        print(f"pseudo-units  {{{shown}{more}}}")
    return EXIT_OK


def _report_exit(reports) -> int:
    if any(r.verdict == Verdict.FAIL for r in reports):
        return EXIT_PROPERTY_FAILURE
    if any(r.verdict == Verdict.INCONCLUSIVE for r in reports):
        return EXIT_PROPERTY_FAILURE
    return EXIT_OK


def cmd_iso(args) -> int:
    h = _load_monoid(args.domain_file)
    k = _load_monoid(args.codomain_file)
    cfg = _suite_config(args)
    iso = build_translation_iso(h, k)
    names = args.suites.split(",") if args.suites else None
    reports = verify_iso(iso, cfg, names)
    sys.stdout.write(format_reports(reports, args.format))
    code = _report_exit(reports)
    if code != EXIT_OK:
        first = next(r for r in reports if r.verdict in (Verdict.FAIL, Verdict.INCONCLUSIVE))
        print(f"first failure: suite {first.suite}: {first.verdict}", file=sys.stderr)
    return code


def cmd_suite(args) -> int:
    cfg = _suite_config(args)
    if args.domain or args.codomain:
        if not (args.domain and args.codomain):
            raise _UsageError("--domain and --codomain must be given together")
        iso = build_translation_iso(_load_monoid(args.domain), _load_monoid(args.codomain))
    else:
        iso = planar_iso()
    for name in args.names:
        if name not in SUITE_NAMES:
            raise _UsageError(
                f"unknown suite {name!r}; available: {', '.join(sorted(SUITE_NAMES))}"
            )
    reports = [run_suite(name, iso, cfg) for name in sorted(args.names)]
    sys.stdout.write(format_reports(reports, args.format))
    return _report_exit(reports)


def cmd_example_rank4(args) -> int:
    cfg = _suite_config(args)
    report = run_rank4_example(cfg)
    sys.stdout.write(format_reports([report], args.format))
    return EXIT_OK if report.verdict == Verdict.PASS else EXIT_PROPERTY_FAILURE


def _add_common_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--window", type=int, default=8, help="window bound (default 8)")
    parser.add_argument("--seed", type=int, default=SuiteConfig().seed, help="sampling seed")
    parser.add_argument("--samples", type=int, default=1000, help="sample count (default 1000)")
    parser.add_argument(
        "--max-set-size", type=int, default=6, dest="max_set_size",
        help="largest sampled set size (default 6)",
    )
    parser.add_argument(
        "--format", choices=("human", "json"), default="human", help="output format"
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="powmon",
        description="Exact computation in reduced finitary power monoids.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser("eval", help="evaluate a power-monoid expression")
    p_eval.add_argument("expression")
    p_eval.add_argument("--monoid", help="monoid definition file (default: N0)")
    _add_common_flags(p_eval)
    p_eval.set_defaults(fn=cmd_eval)

    p_analyze = sub.add_parser("analyze", help="analyze a monoid inside a window")
    p_analyze.add_argument("monoid_file")
    _add_common_flags(p_analyze)
    p_analyze.set_defaults(fn=cmd_analyze)

    p_iso = sub.add_parser("iso", help="build a translation isomorphism and verify it")
    p_iso.add_argument("domain_file")
    p_iso.add_argument("codomain_file")
    p_iso.add_argument("--suites", help="comma-separated suite names (default: all)")
    _add_common_flags(p_iso)
    p_iso.set_defaults(fn=cmd_iso)

    p_suite = sub.add_parser("suite", help="run named property suites")
    p_suite.add_argument("names", nargs="+", help="suite names")
    p_suite.add_argument("--domain", help="domain monoid file (default: planar half-plane)")
    p_suite.add_argument("--codomain", help="codomain monoid file (default: sqrt(2) cone)")
    _add_common_flags(p_suite)
    p_suite.set_defaults(fn=cmd_suite)

    p_rank4 = sub.add_parser("example-rank4", help="run the packaged rank-4 scenario")
    _add_common_flags(p_rank4)
    p_rank4.set_defaults(fn=cmd_example_rank4)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code else EXIT_OK
    try:
        return args.fn(args)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except _SchemaError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except ApplicabilityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (MembershipError, MonoidMismatchError, SignatureMismatchError, _UsageError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def console() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    console()
