"""Exact arithmetic in reduced finitary power monoids.

Finite identity-containing subsets of a commutative cancellative monoid
form a monoid under setwise multiplication.  This package computes in
such power monoids with exact integer arithmetic, constructs the
translation isomorphisms X -> a + X between power monoids of suitable
monoid pairs, and verifies their structural laws with deterministic,
seeded property suites.
"""

from .ambient import (
    INFINITE,
    GroupElement,
    GroupSignature,
    SignatureMismatchError,
    solve_relations,
)
from .monoids import (
    ComplementSpec,
    Composite,
    FreeGenerated,
    FullN0,
    HalfPlaneLex,
    IrrationalCone,
    MonoidSpec,
    Numerical,
    QuadraticSurd,
    ValuationStatus,
    ValuationVerdict,
    Window,
    composite,
    elements_in_window,
    free_generated,
    full_n0,
    half_plane_lex,
    irrational_cone,
    is_unit,
    is_valuation,
    load_monoid_file,
    monoid_from_json,
    monoid_to_json,
    numerical,
    pseudo_unit_submonoid,
    units,
)
from .powersets import (
    FinSubset1,
    MembershipError,
    MonoidMismatchError,
    QuotientReport,
    divides,
    quotient_multiplicity,
    quotients,
    reversion,
    set_power,
    set_product,
)
from .structure import (
    DecompositionReport,
    IrreducibilityVerdict,
    IrreducibleStatus,
    PseudoUnitStatus,
    PseudoUnitVerdict,
    decompose,
    is_independent,
    is_irreducible,
    pseudo_unit,
)
from .suites import (
    DEFAULT_SEED,
    SUITE_NAMES,
    SuiteConfig,
    SuiteReport,
    Verdict,
    planar_iso,
    planar_pair,
    rank4_pair,
    run_rank4_example,
    run_suite,
    verify_iso,
)
from .translation import (
    ApplicabilityError,
    DichotomyViolationError,
    ReversedStatus,
    TranslationCheckError,
    TranslationIso,
    apply_iso,
    build_translation_iso,
    classify_reversed,
    decomposition_map,
    pullback,
    valuation_min,
)

__version__ = "0.1.0"
