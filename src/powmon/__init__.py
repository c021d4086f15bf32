"""Exact arithmetic in reduced finitary power monoids.

Finite identity-containing subsets of a commutative cancellative monoid
form a monoid under setwise multiplication.  This package computes in
such power monoids with exact integer arithmetic, constructs the
translation isomorphisms X -> a + X between power monoids of suitable
monoid pairs, and verifies their structural laws with deterministic,
seeded property suites.

The public API is each library module's ``__all__``, republished here;
``powmon.cli``, the command-line front end, is not imported.
"""

from .ambient import *
from .monoids import *
from .powersets import *
from .structure import *
from .suites import *
from .translation import *

__version__ = "0.1.0"
