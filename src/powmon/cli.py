"""Command-line front end.

Subcommands:

* ``eval``          -- evaluate a power-monoid expression over a monoid;
* ``analyze``       -- units, valuation verdict, irreducibles and the
                       pseudo-unit decomposition of a monoid in a window;
* ``iso``           -- build the translation isomorphism between two
                       monoid files and run the property suites;
* ``suite``         -- run named suites against the packaged planar pair
                       (``iso --suites`` runs them on monoid files);
* ``example-rank4`` -- the packaged rank-4 scenario.

Exit codes are a stable contract: 0 all checks passed, 1 property
failure or inconclusive run, 2 applicability or usage error, 3 parse
error, 4 internal error.  The environment variable POWMON_SEED, when
set, overrides the sampling seed (including an explicit --seed).
"""

from __future__ import annotations

import argparse
import json
import os
import re
import signal
import sys
from dataclasses import dataclass
from functools import cache

from .ambient import GroupElement
from .monoids import (
    MonoidSpec,
    Window,
    elements_in_window,
    full_n0,
    is_unit,
    is_valuation,
    load_monoid_file,
    to_json,
    units,
)
from .powersets import FinSubset1, reversion, set_power, set_product
from .structure import IrreducibleStatus, decompose, is_irreducible
from .suites import (
    SuiteConfig,
    Verdict,
    format_reports,
    planar_iso,
    run_rank4_example,
    verify_iso,
)
from .translation import DichotomyViolationError, TranslationCheckError, build_translation_iso

__all__ = ["main", "console", "ParseError", "parse_expression"]

EXIT_OK = 0
EXIT_PROPERTY_FAILURE = 1
EXIT_USAGE = 2
EXIT_PARSE = 3
EXIT_INTERNAL = 4


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
#   element := INT | '(' ints [';' ints] ')'
#   ints    := INT { ',' INT }
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _Token:
    kind: str
    text: str
    pos: int


#: An integer in ASCII digits: the rule of ``eval`` tokens and of
#: ``_ascii_int``; ``int`` alone would also take '٢', '²' and '2_0'.
_INT = r"-?[0-9]+"
#: A token: an integer (group 1, kind "int"), or 'rev' or one punctuation
#: character, each its own kind.
_TOKEN = re.compile(rf"({_INT})|rev|[{{}}(),;*^]")


def _tokenize(text: str) -> list[_Token]:
    tokens = []
    i = 0
    while i < len(text):
        if text[i].isspace():
            i += 1
            continue
        m = _TOKEN.match(text, i)
        if m is None:
            raise ParseError(f"unexpected character {text[i]!r}", i)
        tokens.append(_Token("int" if m[1] else m[0], m[0], i))
        i = m.end()
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
            return reversion(self.parse_parenthesized())
        if tok.kind == "(":
            return self.parse_parenthesized()
        raise ParseError(f"expected a set literal, found {tok.text or 'end of input'!r}", tok.pos)

    def parse_parenthesized(self) -> FinSubset1:
        self.expect("(")
        inner = self.parse_expr()
        self.expect(")")
        return inner

    def parse_list(self, parse_item) -> list:
        items = [parse_item()]
        while self.peek().kind == ",":
            self.next()
            items.append(parse_item())
        return items

    def parse_setlit(self) -> FinSubset1:
        self.expect("{")
        elements = self.parse_list(self.parse_element)
        self.expect("}")
        return FinSubset1.make(self.monoid, elements)

    def parse_ints(self) -> tuple[int, ...]:
        return tuple(self.parse_list(lambda: int(self.expect("int").text)))

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
        if tok.kind != "(":
            raise ParseError(f"expected an element, found {tok.text or 'end of input'!r}", tok.pos)
        opening = self.next()
        free = self.parse_ints()
        torsion = ()
        if self.peek().kind == ";":
            self.next()
            torsion = self.parse_ints()
        self.expect(")")
        try:
            return sig.element(free, torsion)
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
        raise ValueError(f"monoid file not found: {path}")
    except OSError as exc:
        raise ValueError(f"cannot read monoid file {path}: {exc.strerror or exc}")
    except (ValueError, RecursionError) as exc:
        # json.JSONDecodeError is a ValueError; a RecursionError is JSON
        # nested past the decoder's depth
        raise _SchemaError(f"invalid monoid file {path}: {exc}")


class _SchemaError(Exception):
    pass


def _ascii_int(text: str) -> int:
    """The one reader of integer flags and POWMON_SEED, by the ``_INT`` rule."""
    if re.fullmatch(_INT, text) is None:
        raise argparse.ArgumentTypeError(f"{text!r} is not an integer in ASCII digits")
    return int(text)


def _suite_config(args) -> SuiteConfig:
    seed = args.seed
    env_seed = os.environ.get("POWMON_SEED")
    if env_seed is not None:
        try:
            seed = _ascii_int(env_seed)
        except argparse.ArgumentTypeError as exc:
            raise ValueError(f"POWMON_SEED: {exc}") from None
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
        print(json.dumps({"elements": to_json(result.elements)}, sort_keys=True))
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
            "status": verdict.status,
            **({"witness": verdict.witness} if verdict.witness else {}),
        },
        "units": unit_list,
        "irreducibles": [{"element": u, "status": status} for u, status in irreducible],
        "reducible_count": reducible,
        "decomposition": {
            "pseudo_unit_count": len(report.pseudo_units),
            "complement_count": len(report.complement),
            "unknown_count": 0,
            "pseudo_units": report.pseudo_units,
        },
    }
    if args.format == "json":
        print(json.dumps(to_json(doc), sort_keys=True, indent=2))
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
        )
        shown = ",".join(map(repr, report.pseudo_units[:12]))
        more = "..." if len(report.pseudo_units) > 12 else ""
        print(f"pseudo-units  {{{shown}{more}}}")
    return EXIT_OK


def _write_reports(reports, fmt: str) -> int:
    """Write the reports; exit 1, naming the first failed or inconclusive suite."""
    sys.stdout.write(format_reports(reports, fmt))
    first = next((r for r in reports if r.verdict in (Verdict.FAIL, Verdict.INCONCLUSIVE)), None)
    if first is None:
        return EXIT_OK
    print(f"first failure: suite {first.suite}: {first.verdict}", file=sys.stderr)
    return EXIT_PROPERTY_FAILURE


def cmd_iso(args) -> int:
    h = _load_monoid(args.domain_file)
    k = _load_monoid(args.codomain_file)
    cfg = _suite_config(args)
    iso = build_translation_iso(h, k)
    names = args.suites.split(",") if args.suites is not None else None
    return _write_reports(verify_iso(iso, cfg, names), args.format)


def cmd_suite(args) -> int:
    cfg = _suite_config(args)
    return _write_reports(verify_iso(planar_iso(), cfg, args.names), args.format)


def cmd_example_rank4(args) -> int:
    return _write_reports([run_rank4_example(_suite_config(args))], args.format)


#: Every flag a subcommand may take; each subcommand adds only those it reads.
#: The integer flags take their defaults from the SuiteConfig fields they set.
_FLAGS = {
    flag: dict(type=_ascii_int, default=getattr(SuiteConfig(), field), help=text)
    for flag, field, text in (
        ("--window", "window_bound", "window bound (default %(default)s)"),
        ("--seed", "seed", "sampling seed"),
        ("--samples", "sample_count", "sample count (default %(default)s)"),
        ("--max-set-size", "max_set_size", "largest sampled set size (default %(default)s)"),
    )
}
_FLAGS["--format"] = dict(choices=("human", "json"), default="human", help="output format")


def _add_flags(parser: argparse.ArgumentParser, *names: str) -> None:
    for name in names:
        parser.add_argument(name, **_FLAGS[name])


@cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built on the first call and shared afterwards."""
    parser = argparse.ArgumentParser(
        prog="powmon",
        description="Exact computation in reduced finitary power monoids.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser("eval", help="evaluate a power-monoid expression")
    p_eval.add_argument("expression")
    p_eval.add_argument("--monoid", help="monoid definition file (default: N0)")
    _add_flags(p_eval, "--format")

    p_analyze = sub.add_parser("analyze", help="analyze a monoid inside a window")
    p_analyze.add_argument("monoid_file")
    _add_flags(p_analyze, "--window", "--format")

    p_iso = sub.add_parser("iso", help="build a translation isomorphism and verify it")
    p_iso.add_argument("domain_file")
    p_iso.add_argument("codomain_file")
    p_iso.add_argument("--suites", help="comma-separated suite names (default: all)")
    _add_flags(p_iso, *_FLAGS)

    p_suite = sub.add_parser("suite", help="run named property suites")
    p_suite.add_argument("names", nargs="+", help="suite names")
    _add_flags(p_suite, *_FLAGS)

    p_rank4 = sub.add_parser("example-rank4", help="run the packaged rank-4 scenario")
    _add_flags(p_rank4, *_FLAGS)

    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code else EXIT_OK
    # looked up at each call, so a command replaced in the module is the one run
    fn = globals()["cmd_" + args.command.replace("-", "_")]
    try:
        return fn(args)
    except (ParseError, _SchemaError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except ValueError as exc:
        # a missing or unreadable monoid file, a bad POWMON_SEED, and
        # ApplicabilityError, MembershipError, MonoidMismatchError and
        # SignatureMismatchError are all ValueErrors
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (TranslationCheckError, DichotomyViolationError, AssertionError) as exc:
        # a failed postcondition of the package, not a verdict on the input
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


def console() -> None:
    # a reader that closes stdout early (`powmon ... | head`) ends the run
    # quietly, as it ends cat or grep; powmon opens no socket
    if hasattr(signal, "SIGPIPE"):
        signal.signal(signal.SIGPIPE, signal.SIG_DFL)
    raise SystemExit(main())


if __name__ == "__main__":
    console()
