"""The package's public surface: what each module exports, and the README
quick tour run as written."""

import ast
import importlib
import os
import re
import subprocess
import sys
import types
from pathlib import Path

import pytest

import powmon

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "powmon"

#: Names deleted in favour of the code behind them, as (home module, dotted
#: path), each with what its callers call instead.
DELETED = [
    ("ambient", "subgroup_contains"),  # lattice_contains(rows, u.coords)
    ("ambient", "RelationLattice.contains"),  # lattice_contains(lat.generators, p)
    ("monoids", "FreeGenerated.is_group"),  # m.grading is None
    ("monoids", "Composite.in_complement"),  # h.complement_part.contains(u)
    ("powersets", "QuotientReport.quotient_elements"),  # a read of entries
    ("suites", "SuiteReport.to_json"),  # to_json_dict()
    ("translation", "translation_element"),  # _translation(f, x.elements)
    ("translation", "_members"),  # apply_iso checks the domain itself
    ("translation", "ReversedClassification"),  # classify_reversed gives the status
    ("structure", "DecompositionReport.to_json_dict"),  # analyze writes its own
    ("monoids", "ComplementSpec._grade"),  # grade(u.coords)
    ("monoids", "ComplementSpec._combination"),  # member_combination(u.coords)
    ("monoids", "ComplementSpec.contains_with_base"),  # G by lattice_residue, G.M by contains
    ("monoids", "Numerical.contains_int"),  # contains(Z1.element(x))
    ("monoids", "Numerical.is_trivial"),  # not m.generators
    ("monoids", "HalfPlaneLex.plane_coords"),  # _plane_xy(u.coords)
    ("ambient", "GroupElement.norm_inf"),  # max(map(abs, u.free), default=0)
    ("powersets", "QuotientReport.multiplicity"),  # dict(report.entries).get(a, 0)
    ("structure", "_composite_witness"),  # _complement_witness(spec, comp, a.coords)
    ("structure", "PseudoUnitStatus.UNKNOWN_UP_TO_WINDOW"),  # every verdict is decided
    ("structure", "DecompositionReport.unknown"),  # the two buckets partition the window
    ("monoids", "ComplementSpec.has_incomparable_pair"),  # incomparable_pair is not None
    ("translation", "is_reversed"),  # classify_reversed(f, u) is ReversedStatus.REVERSED
    ("monoids", "FreeGenerated._complement"),  # complement_part, as on a composite
    ("monoids", "_shell"),  # witness_search_order filters each shell from its cube
    ("monoids", "ValuationStatus.UNKNOWN_UP_TO_WINDOW"),  # every verdict is decided
    ("suites", "_set_obj"),  # failures hold the set; _report encodes it with to_json
    ("monoids", "_signature_to_obj"),  # to_json(sig): its constructor fields
    ("ambient", "RelationLattice"),  # solve_relations gives the HNF rows; `not lat` is trivial
    ("ambient", "subgroups_equal"),  # subgroup_rows(sig, a) == subgroup_rows(sig, b)
    ("monoids", "spec_to_dict"),  # to_json(spec)
    ("monoids", "ComplementSpec._search"),  # _solve: one lattice solve per new residue
]


def _defined(module: str) -> set[str]:
    """The names that the module's source binds at top level by def, class
    or assignment; imported names are not among them."""
    tree = ast.parse((PACKAGE / f"{module}.py").read_text(encoding="utf-8"))
    defined = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            defined.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            defined.update(t.id for t in targets if isinstance(t, ast.Name))
    return defined


MODULES = sorted(p.stem for p in PACKAGE.glob("*.py") if p.stem != "__init__")


@pytest.mark.parametrize("module", MODULES)
def test_all_lists_only_names_the_module_defines(module):
    mod = importlib.import_module(f"powmon.{module}")
    exported = getattr(mod, "__all__", [])
    assert len(set(exported)) == len(exported)
    assert [name for name in exported if name not in _defined(module)] == []
    assert [name for name in exported if not hasattr(mod, name)] == []


#: The library modules: every module but the command-line front end.
LIBRARY = [module for module in MODULES if module not in ("cli", "__main__")]


def test_package_republishes_each_library_all():
    """powmon's public names are the library modules' ``__all__`` lists, no
    name exported by two modules, and ``import powmon`` loads no CLI code."""
    exported = [
        name for module in LIBRARY for name in importlib.import_module(f"powmon.{module}").__all__
    ]
    assert sorted({name for name in exported if exported.count(name) > 1}) == []
    public = {
        name for name, obj in vars(powmon).items()
        if not name.startswith("_") and not isinstance(obj, types.ModuleType)
    }
    assert public == set(exported)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONDONTWRITEBYTECODE="1")
    probe = "import sys, powmon; print([m for m in ('powmon.cli', 'argparse') if m in sys.modules])"
    done = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    assert done.stdout == "[]\n"


def _resolves(obj, dotted: str) -> bool:
    for part in dotted.split("."):
        if not hasattr(obj, part):
            return False
        obj = getattr(obj, part)
    return True


@pytest.mark.parametrize("module, dotted", DELETED, ids=[d for _, d in DELETED])
def test_deleted_names_do_not_resolve(module, dotted):
    assert not _resolves(importlib.import_module(f"powmon.{module}"), dotted)
    assert not _resolves(powmon, dotted)


def test_readme_quick_tour_prints_its_comments():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    block = re.search(r"^```python\n(.*?)^```", readme, re.M | re.S)[1]
    # every print line ends with "# <what it prints>"
    expected = [
        line.split("#", 1)[1].strip() for line in block.splitlines() if line.startswith("print(")
    ]
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONDONTWRITEBYTECODE="1")
    done = subprocess.run(
        [sys.executable, "-c", block], env=env, capture_output=True, text=True, check=True
    )
    assert expected and done.stdout.splitlines() == expected
