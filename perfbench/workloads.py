"""The four benchmark workloads.

Each workload has three phases, run by ``child.py`` in one fresh
interpreter per repetition:

* ``prepare(seed, workdir)`` builds the inputs (and, for ``n0_algebra``,
  the plain-int reference) without importing powmon;
* ``setup(state)`` runs after ``import powmon`` and is timed with it as
  ``setup_s``;
* ``body(state, tally)`` runs the timed operations.  Only the calls into
  powmon are inside the clock; checking each output against its
  reference happens between the timed chunks.

Why these four: each puts most of its time in one part of the package
and little in another, so an optimisation of one layer has a workload
that exercises it and one that bypasses it (see README.md).
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import time
from pathlib import Path

import refimpl

HERE = Path(__file__).resolve().parent
MONOIDS = json.loads((HERE / "monoids.json").read_text(encoding="utf-8"))
REFERENCES_PATH = HERE / "references.json"

WORKLOADS = ("planar_iso", "rank4_iso", "analyze_mix", "n0_algebra")

#: Suite seeds whose reports were recorded at the seed commit.  ``--seed n``
#: runs the suites with n itself when listed, else with REFERENCE_SEEDS[n % 8],
#: so every run is checked against a recorded report.  The first is
#: powmon's DEFAULT_SEED.
REFERENCE_SEEDS = (1347440721, 1, 2, 3, 4, 5, 6, 7)

#: The 16 suites, in the order ``powmon iso`` runs them.
SUITES = (
    "cardinality", "decomposition_hom", "dependent_products", "homomorphism",
    "independent_powers", "nothing_reversed", "one_reversed", "product_dichotomy",
    "pseudo_closure", "pullback_powers", "pullback_unit_inverses",
    "quotient_multiplicity", "split_monoids", "torsion_products", "two_sets",
    "units_not_reversed",
)
#: Verdicts that count as a passed suite; FAIL and INCONCLUSIVE fail.
PASSING_VERDICTS = ("PASS", "NOT_APPLICABLE")

ISO_PAIRS = {
    "planar_iso": ("half-plane-lex", "cone-sqrt2"),
    "rank4_iso": ("rank4-H", "rank4-K"),
}
#: (monoid, window) for ``analyze_mix``.
ANALYZE_FILES = (
    ("rank4-H", 8),
    ("cone-sqrt2", 8),
    ("num-2-3", 20),
    ("num-3-5-7", 20),
    ("free-z2", 8),
    ("free-z-z3", 8),
)
WINDOW = 8

clock = time.perf_counter


def load_references() -> dict:
    return json.loads(REFERENCES_PATH.read_text(encoding="utf-8"))


def suite_seed(seed: int) -> int:
    if seed in REFERENCE_SEEDS:
        return seed
    return REFERENCE_SEEDS[seed % len(REFERENCE_SEEDS)]


def canonical_digest(obj) -> str:
    """sha256 of the canonical (sorted, compact) JSON form of ``obj``."""
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def write_monoid(workdir: Path, name: str) -> str:
    path = workdir / f"{name}.json"
    text = json.dumps(MONOIDS[name], sort_keys=True, indent=2) + "\n"
    if not path.exists() or path.read_text(encoding="utf-8") != text:
        path.write_text(text, encoding="utf-8")
    return str(path)


class Tally:
    """What one repetition did: timed wall, operations, checked outputs."""

    def __init__(self) -> None:
        self.wall_s = 0.0
        self.ops = 0
        self.attempted = 0
        self.wrong = 0  # output differs from the reference, or the call raised
        self.failed = 0  # wrong, or a FAIL/INCONCLUSIVE verdict or non-zero exit
        self.outputs: dict[str, str | None] = {}
        self.suite_wall_s: dict[str, float] = {}
        self.suite_cases: dict[str, int] = {}
        self.errors: list[str] = []
        self.sampler = None  # a started hostspeed.Sampler, whose time is not counted

    def check(self, ok: bool, passed: bool = True) -> None:
        self.attempted += 1
        if not ok:
            self.wrong += 1
        if not (ok and passed):
            self.failed += 1

    def error(self, count: int, exc: BaseException) -> None:
        for _ in range(count):
            self.check(False)
        if len(self.errors) < 5:
            self.errors.append(f"{type(exc).__name__}: {exc}")


#: What ``_timed`` returns when the call raised.
RAISED = object()


def _timed(tally: Tally, outputs: int, fn, *args):
    """``fn(*args)`` inside the clock.  A raise counts ``outputs`` wrong
    outputs and returns ``RAISED``."""
    probed = tally.sampler.spent if tally.sampler is not None else 0.0
    t0 = clock()
    try:
        return fn(*args)
    except Exception as exc:  # a crash is a failed, wrong output
        tally.error(outputs, exc)
        return RAISED
    finally:
        elapsed = clock() - t0
        if tally.sampler is not None:
            elapsed -= tally.sampler.spent - probed
        tally.wall_s += elapsed


def _capture_main(main, argv: list[str]) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(argv)
    return code, buf.getvalue()


def _mask_of(x) -> int:
    m = 0
    for u in x.elements:
        m |= 1 << u.free[0]
    return m


# ---------------------------------------------------------------------------
# planar_iso / rank4_iso: the 16 suites on one translation isomorphism.
# ---------------------------------------------------------------------------


class IsoWorkload:
    def __init__(self, name: str) -> None:
        self.name = name

    def prepare(self, seed: int, workdir: Path, references: dict | None) -> dict:
        dom, cod = ISO_PAIRS[self.name]
        sseed = suite_seed(seed)
        refs = references[self.name][str(sseed)] if references is not None else {}
        return {
            "files": (write_monoid(workdir, dom), write_monoid(workdir, cod)),
            "suite_seed": sseed,
            "refs": refs,
        }

    def setup(self, st: dict) -> None:
        import powmon

        h = powmon.load_monoid_file(st["files"][0])
        k = powmon.load_monoid_file(st["files"][1])
        st["iso"] = powmon.build_translation_iso(h, k)
        # the defaults of ``powmon iso``: window 8, 1000 samples, sets of <= 6
        st["cfg"] = powmon.SuiteConfig(seed=st["suite_seed"], window_bound=WINDOW)
        powmon.elements_in_window(st["iso"].domain, st["cfg"].window)

    def body(self, st: dict, tally: Tally) -> None:
        import powmon

        iso, cfg = st["iso"], st["cfg"]
        for name in SUITES:
            before = tally.wall_s
            report = _timed(tally, 1, powmon.run_suite, name, iso, cfg)
            if report is RAISED:
                tally.outputs[name] = None
                continue
            tally.suite_wall_s[name] = tally.wall_s - before
            tally.suite_cases[name] = report.cases
            tally.ops += report.cases
            digest = canonical_digest(report.to_json_dict())
            tally.outputs[name] = digest
            tally.check(digest == st["refs"].get(name), report.verdict in PASSING_VERDICTS)


# ---------------------------------------------------------------------------
# analyze_mix: ``powmon analyze --format json`` on six monoid files.
# ---------------------------------------------------------------------------


class AnalyzeWorkload:
    name = "analyze_mix"

    def prepare(self, seed: int, workdir: Path, references: dict | None) -> dict:
        # analyze samples nothing; the seed only orders the six calls
        order = list(ANALYZE_FILES)
        random.Random(f"analyze_mix:{seed}").shuffle(order)
        return {
            "calls": [(name, write_monoid(workdir, name), window) for name, window in order],
            "refs": references[self.name] if references is not None else {},
        }

    def setup(self, st: dict) -> None:
        pass  # the CLI import is all the set-up analyze needs

    def body(self, st: dict, tally: Tally) -> None:
        from powmon.cli import main

        for name, path, window in st["calls"]:
            argv = ["analyze", path, "--format", "json", "--window", str(window)]
            result = _timed(tally, 1, _capture_main, main, argv)
            if result is RAISED:
                tally.outputs[name] = None
                continue
            code, out = result
            doc = json.loads(out) if code == 0 else None
            digest = canonical_digest(doc) if doc is not None else None
            tally.outputs[name] = digest
            tally.ops += doc["member_count"] if doc is not None else 0
            tally.check(digest == st["refs"].get(name), code == 0)


# ---------------------------------------------------------------------------
# n0_algebra: set algebra over N0, checked against refimpl.
# ---------------------------------------------------------------------------


def _subsets_with_zero(top: int) -> list[int]:
    """Masks of all subsets of {0..top} that contain 0."""
    return [(bits << 1) | 1 for bits in range(2**top)]


class N0Workload:
    name = "n0_algebra"

    def prepare(self, seed: int, workdir: Path, references: dict | None) -> dict:
        rng = random.Random(f"n0_algebra:{seed}")
        return {
            "rev_sets": _subsets_with_zero(8),
            "quotient_sets": _subsets_with_zero(9),
            "divides": refimpl.divides_pairs(rng),
            "powers": refimpl.power_inputs(rng),
            "evals": refimpl.eval_inputs(rng),
        }

    def setup(self, st: dict) -> None:
        import powmon

        st["n0"] = powmon.full_n0()

    def body(self, st: dict, tally: Tally) -> None:
        self._reversion(st, tally)
        self._quotients(st, tally)
        self._divides(st, tally)
        self._powers(st, tally)
        self._evals(st, tally)

    def _reversion(self, st: dict, tally: Tally) -> None:
        """rev(X*Y) = rev(X)*rev(Y) over all 256 x 256 subsets of {0..8}."""
        from powmon import FinSubset1, reversion, set_product

        n0, masks = st["n0"], st["rev_sets"]

        def singles():
            sets = [FinSubset1.from_ints(n0, refimpl.members(m)) for m in masks]
            return sets, [reversion(x) for x in sets]

        def row(x, rx, sets, revs):
            return [(p, reversion(p), set_product(rx, revs[j]))
                    for j, p in enumerate(set_product(x, y) for y in sets)]

        result = _timed(tally, len(masks) * (1 + 3 * len(masks)), singles)
        if result is RAISED:
            return
        sets, revs = result
        tally.ops += len(masks)
        for m, r in zip(masks, revs):
            tally.check(_mask_of(r) == refimpl.reversion(m))
        for i, x in enumerate(sets):
            triples = _timed(tally, 3 * len(sets), row, x, revs[i], sets, revs)
            if triples is RAISED:
                continue
            tally.ops += 3 * len(triples)
            for j, (p, rp, q) in enumerate(triples):
                ref = refimpl.product(masks[i], masks[j])
                ref_rev = refimpl.reversion(ref)
                tally.check(_mask_of(p) == ref)
                tally.check(_mask_of(rp) == ref_rev)
                tally.check(_mask_of(q) == ref_rev)

    def _quotients(self, st: dict, tally: Tally) -> None:
        """quotients() of all 512 subsets of {0..9}."""
        from powmon import FinSubset1, quotients

        n0, masks = st["n0"], st["quotient_sets"]
        reports = _timed(tally, len(masks), lambda: [
            quotients(FinSubset1.from_ints(n0, refimpl.members(m))) for m in masks
        ])
        if reports is RAISED:
            return
        tally.ops += len(reports)
        for m, rep in zip(masks, reports):
            got = tuple((a.free[0], n) for a, n in rep.entries)
            tally.check(got == refimpl.quotient_entries(refimpl.members(m)))

    def _divides(self, st: dict, tally: Tally) -> None:
        from powmon import FinSubset1, divides

        n0 = st["n0"]
        for x, y in st["divides"]:
            w = _timed(tally, 1, lambda: divides(FinSubset1.from_ints(n0, x),
                                                 FinSubset1.from_ints(n0, y)))
            if w is RAISED:
                continue
            tally.ops += 1
            if w is None:
                tally.check(not refimpl.divisible(x, y))
            else:
                tally.check(refimpl.is_witness(x, y, tuple(u.free[0] for u in w.elements)))

    def _powers(self, st: dict, tally: Tally) -> None:
        from powmon import FinSubset1, set_power

        n0 = st["n0"]
        for base, n in st["powers"]:
            r = _timed(tally, 1, lambda: set_power(FinSubset1.from_ints(n0, base), n))
            if r is RAISED:
                continue
            tally.ops += 1
            tally.check(_mask_of(r) == refimpl.power(refimpl.mask(base), n))

    def _evals(self, st: dict, tally: Tally) -> None:
        from powmon.cli import main

        for text, ref in st["evals"]:
            result = _timed(tally, 1, _capture_main, main, ["eval", text, "--format", "json"])
            if result is RAISED:
                continue
            code, out = result
            tally.ops += 1
            got = None
            if code == 0:
                got = refimpl.mask(e["free"][0] for e in json.loads(out)["elements"])
            tally.check(got == ref, code == 0)


def make(name: str):
    if name in ISO_PAIRS:
        return IsoWorkload(name)
    if name == "analyze_mix":
        return AnalyzeWorkload()
    if name == "n0_algebra":
        return N0Workload()
    raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")
