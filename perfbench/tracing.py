"""Per-layer tracing of powmon from outside the package.

``Tracer.install`` replaces each traced function or method at every
binding the package resolves it through (``suites`` and ``translation``
hold their own names for ``apply_iso``, ``pullback`` and ``set_product``;
``ComplementSpec`` calls ``monoids.lattice_residue``; and so on), and
``uninstall`` puts every original object back.  Only the traced
repetition, in its own process, ever installs a tracer.

Two kinds of boundary:

* count-only, for hot micro-operations (group arithmetic, lattice
  reduction, membership): a counter, no span, so their time stays in
  the caller's self time;
* span, for coarse calls: a counter plus self time, the span's duration
  minus the part covered by nested spans.

Spans are aggregated in memory per name and read once at the end.
"""

from __future__ import annotations

import sys
import time
from collections import Counter, defaultdict

#: Module-level functions traced as count-only boundaries, as
#: ``<module>.<function>``; the name is also the metric prefix.
COUNT_FUNCTIONS = (
    "ambient.lattice_residue",
    "ambient.lattice_contains",
    "ambient.hnf_rows",
    "ambient.solve_relations",
    "translation.pullback",
    "structure.is_independent",
)
#: Module-level functions traced as spans.
SPAN_FUNCTIONS = (
    "monoids.elements_in_window",
    "monoids.is_valuation",
    "monoids.units",
    "powersets.divides",
    "powersets.set_power",
    "powersets.quotients",
    "powersets.reversion",
    "translation.apply_iso",
    "translation.valuation_min",
    "translation.classify_reversed",
    "translation.build_translation_iso",
    "structure.decompose",
    "structure.pseudo_unit",
    "structure.is_irreducible",
)
#: Spans on the ``cli`` module's binding only: the CLI's own entry points.
CLI_SPANS = ("load_monoid_file", "main")
#: Classes in ``monoids`` whose ``contains`` is counted.
FAMILIES = (
    "FullN0", "Numerical", "HalfPlaneLex", "IrrationalCone",
    "FreeGenerated", "Composite", "ComplementSpec",
)

SUITE_METRICS = ("wall_s", "cases")


def per_layer_names(suites) -> list[str]:
    """Every per-layer metric a traced run reports, in output order."""
    names = [
        "ambient.add.calls",
        "ambient.neg.calls",
        "ambient.lattice_residue.calls",
        "ambient.lattice_contains.calls",
        "ambient.hnf_rows.calls",
        "ambient.solve_relations.calls",
    ]
    names += [f"monoids.contains.calls.{fam}" for fam in FAMILIES]
    names += [
        "monoids.complement.memo_hit_ratio",
        "monoids.window.points_scanned",
        "monoids.elements_in_window.self_s",
        "monoids.elements_in_window.hit_ratio",
        "monoids.is_valuation.self_s",
        "monoids.units.self_s",
        "powersets.make.calls",
        "powersets.set_product.calls_z",
        "powersets.set_product.calls_generic",
        "powersets.set_product.pairs",
        "powersets.set_product.self_s",
        "powersets.divides.self_s",
        "powersets.set_power.self_s",
        "powersets.quotients.self_s",
        "powersets.reversion.self_s",
        "translation.apply_iso.calls",
        "translation.apply_iso.self_s",
        "translation.valuation_min.calls",
        "translation.valuation_min.self_s",
        "translation.pullback.calls",
        "translation.pullback.hit_ratio",
        "translation.classify_reversed.calls",
        "translation.classify_reversed.self_s",
        "translation.build_translation_iso.self_s",
        "structure.decompose.self_s",
        "structure.pseudo_unit.calls",
        "structure.pseudo_unit.self_s",
        "structure.is_irreducible.calls",
        "structure.is_irreducible.self_s",
        "structure.is_independent.calls",
    ]
    names += [f"suites.{s}.{m}" for s in suites for m in SUITE_METRICS]
    names += ["cli.load_monoid_file.self_s", "cli.main.self_s"]
    names += ["bench.trace_overhead", "bench.host_speed"]
    return names


def current(owner, attr: str):
    """The object bound at ``owner.attr``, read the way ``Tracer._patch`` reads it."""
    return owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)


def is_restored(patched) -> bool:
    """True when every (owner, attribute, original) is bound to its original again."""
    return all(current(owner, attr) is original for owner, attr, original in patched)


def _module(short: str):
    return sys.modules[f"powmon.{short}"]


def _function(name: str):
    """The function ``<module>.<function>`` of the powmon package."""
    mod, attr = name.split(".")
    return getattr(_module(mod), attr)


def _package_modules() -> list:
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "powmon" or name.startswith("powmon."))]


class Tracer:
    def __init__(self) -> None:
        self.calls: Counter[str] = Counter()
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self._stack: list[float] = []  # time covered by nested spans, per open span
        self._patched: list[tuple[object, str, object]] = []  # (owner, attribute, original)
        self._isos: dict[int, object] = {}
        self._complements: dict[int, object] = {}
        self._window_cache = None

    # -- wrappers ---------------------------------------------------------

    def _counted(self, name: str, fn):
        calls = self.calls

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _span(self, prefix: str, fn, before=None):
        calls, self_s, stack, now = self.calls, self.self_s, self._stack, time.perf_counter
        count_key, time_key = f"{prefix}.calls", f"{prefix}.self_s"

        def wrapper(*args, **kwargs):
            calls[count_key] += 1
            if before is not None:
                before(*args)
            stack.append(0.0)
            t0 = now()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = now() - t0
                self_s[time_key] += dt - stack.pop()
                if stack:
                    stack[-1] += dt

        return wrapper

    def _count_set_product(self, x, y) -> None:
        sig = x.monoid.signature
        # the program's own fast-path condition: ambient group exactly Z
        z = sig.free_rank == 1 and not sig.torsion_orders
        self.calls["powersets.set_product.calls_z" if z else "powersets.set_product.calls_generic"] += 1
        self.calls["powersets.set_product.pairs"] += len(x.elements) * len(y.elements)

    def _remember_iso(self, f, *rest) -> None:
        self._isos.setdefault(id(f), f)

    def _counted_window(self, fn):
        calls = self.calls

        def ambient_window(sig, window):
            for u in fn(sig, window):
                calls["monoids.window.points_scanned"] += 1
                yield u

        return ambient_window

    # -- patching ---------------------------------------------------------

    def _patch(self, owner, attr: str, new) -> None:
        # class attributes are read from __dict__ so a classmethod is kept whole
        self._patched.append((owner, attr, current(owner, attr)))
        setattr(owner, attr, new)

    def _patch_everywhere(self, original, new) -> None:
        """Rebind ``original`` to ``new`` in every powmon module that holds it."""
        for mod in _package_modules():
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._patch(mod, attr, new)

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer already installed")
        ambient, monoids, powersets = _module("ambient"), _module("monoids"), _module("powersets")
        elem = ambient.GroupElement
        self._patch(elem, "__add__", self._counted("ambient.add.calls", elem.__add__))
        self._patch(elem, "__neg__", self._counted("ambient.neg.calls", elem.__neg__))
        for name in COUNT_FUNCTIONS:
            fn = _function(name)
            self._patch_everywhere(fn, self._counted(f"{name}.calls", fn))
        for fam in FAMILIES:
            cls = getattr(monoids, fam)
            fn = cls.__dict__["contains"]
            counted = self._counted(f"monoids.contains.calls.{fam}", fn)
            if fam == "ComplementSpec":
                seen, inner = self._complements, counted

                def counted(spec, u, _inner=inner, _seen=seen):
                    _seen.setdefault(id(spec), spec)
                    return _inner(spec, u)

            self._patch(cls, "contains", counted)
        fs = powersets.FinSubset1
        make = fs.__dict__["make"]
        self._patch(fs, "make", classmethod(self._counted("powersets.make.calls", make.__func__)))
        window = monoids.ambient_window
        self._patch_everywhere(window, self._counted_window(window))
        self._window_cache = monoids.elements_in_window
        for name in SPAN_FUNCTIONS:
            fn = _function(name)
            before = self._remember_iso if name == "translation.apply_iso" else None
            self._patch_everywhere(fn, self._span(name, fn, before))
        product = powersets.set_product
        self._patch_everywhere(
            product, self._span("powersets.set_product", product, self._count_set_product)
        )
        cli = sys.modules.get("powmon.cli")
        if cli is not None:
            for attr in CLI_SPANS:
                self._patch(cli, attr, self._span(f"cli.{attr}", getattr(cli, attr)))

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def patched_attributes(self) -> list[tuple[object, str, object]]:
        """(owner, attribute, original) for every binding currently replaced."""
        return list(self._patched)

    # -- results ----------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """Counts, self times and cache ratios; call after ``install`` and
        before ``uninstall``."""
        out: dict[str, float] = {**self.calls, **self.self_s}
        info = self._window_cache.cache_info()
        lookups = info.hits + info.misses
        out["monoids.elements_in_window.hit_ratio"] = info.hits / lookups if lookups else 0.0
        pull_calls = self.calls["translation.pullback.calls"]
        entries = sum(len(f._pullback_cache) for f in self._isos.values())
        out["translation.pullback.hit_ratio"] = 1 - entries / pull_calls if pull_calls else 0.0
        memo_calls = self.calls["monoids.contains.calls.ComplementSpec"]
        memo = sum(len(c._cache.get("member", {})) for c in self._complements.values())
        out["monoids.complement.memo_hit_ratio"] = 1 - memo / memo_calls if memo_calls else 0.0
        return out
