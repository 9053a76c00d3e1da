"""Every module of the package uses each name it imports, every public
name has a user, the exact core never loads the float numerics, and the
numerics hold no global state: mpmath comes in only as ``mpmath.libmp``,
only in ``enclosure``, and no precision setting of mpmath's contexts
changes a result or is changed.

The stack, each layer importing only from those before it:
exactreal -> enclosure -> qtrig/polyq/powermod -> refinery ->
splinecore -> cli."""

import ast
from pathlib import Path
from typing import Optional, Sequence

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "refinable"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def _unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    # names inside string annotations such as -> "QTrigPoly"
    annotations = [node.annotation for node in ast.walk(tree)
                   if isinstance(node, (ast.arg, ast.AnnAssign)) and node.annotation]
    annotations += [node.returns for node in ast.walk(tree)
                    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and node.returns]
    for ann in annotations:
        for node in ast.walk(ann):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                expr = ast.parse(node.value, mode="eval")
                used.update(n.id for n in ast.walk(expr) if isinstance(n, ast.Name))
    return [f"{name} (line {line})" for name, line in sorted(imported.items())
            if name not in used]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_uses_every_import(path):
    assert _unused_imports(path.read_text()) == []


def test_the_check_sees_an_unused_import():
    source = ('import os\nfrom math import gcd, lcm\nfrom x import T\n'
              'def f(a: "T"):\n    """gcd"""\n    return lcm(1, 2)\n')
    assert _unused_imports(source) == ["gcd (line 2)", "os (line 1)"]


# -- every public name has a user ---------------------------------------------

PERFBENCH = SRC.parent.parent / "perfbench"

# Exported names that nothing in the library or the benchmark references
# yet, each with the reason it stays.
KEPT_WITHOUT_CALLER = {
    "indecomposability_witness":
        "the paper's counterexample, decided exactly; a CLI caller is ROADMAP item 6",
    "ErdosCertificate.to_json":
        "certificate file form; tamper checks of the round trip are ROADMAP item 3",
    "ErdosCertificate.from_json":
        "certificate file form; tamper checks of the round trip are ROADMAP item 3",
}


def _public_surface() -> list[str]:
    """Every name ``refinable/__init__.py`` imports and every public name
    that ``refinable/splinecore.py`` defines, and "Class.method" for each
    public method or property of those classes."""
    import inspect

    import refinable
    from refinable import splinecore

    tree = ast.parse((SRC / "__init__.py").read_text())
    exported = [(refinable, alias.asname or alias.name) for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) for alias in node.names]
    tree = ast.parse((SRC / "splinecore.py").read_text())
    exported += [(splinecore, node.name) for node in tree.body
                 if isinstance(node, (ast.FunctionDef, ast.ClassDef))
                 and not node.name.startswith("_")]
    surface = [name for _, name in exported]
    for module, name in exported:
        obj = getattr(module, name)
        if inspect.isclass(obj):
            surface += [f"{name}.{attr}" for attr, val in vars(obj).items()
                        if not attr.startswith("_")
                        and (inspect.isfunction(val)
                             or isinstance(val, (staticmethod, classmethod, property)))]
    return surface


def _unreferenced(surface: list[str], sources: list[str],
                  lookup_sources: Sequence[str] = ()) -> list[str]:
    """The entries of ``surface`` whose last dotted part no source
    mentions as a Name or an Attribute, nor any of ``lookup_sources`` as
    a string constant.  Only the benchmark looks names up by string
    (``spans.py``); in the library a string is a JSON key or a message,
    and "coefficient" there names no method."""
    refs: set[str] = set()
    for source, strings in [(s, False) for s in sources] + [(s, True) for s in lookup_sources]:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Name):
                refs.add(node.id)
            elif isinstance(node, ast.Attribute):
                refs.add(node.attr)
            elif strings and isinstance(node, ast.Constant) and isinstance(node.value, str):
                refs.add(node.value)
    return [name for name in surface if name.rsplit(".", 1)[-1] not in refs]


def test_every_public_name_has_a_user():
    library = [p.read_text() for p in MODULES]
    bench = [p.read_text() for p in sorted(PERFBENCH.glob("*.py"))]
    unused = _unreferenced(_public_surface(), library, bench)
    assert sorted(unused) == sorted(KEPT_WITHOUT_CALLER)


def test_the_surface_holds_the_float_names():
    surface = _public_surface()
    assert {"cascade_solve", "GridFunction.to_csv", "FactorizationReport.to_jsonable",
            "bspline_mask", "BoxSplineSpec.univariate"} <= set(surface)
    assert "_unit_phase" not in surface


def test_the_check_sees_an_unused_name():
    sources = ["x = f(1)\n", "obj.used()\n", 'KEY = "k"\n', "def h():\n    pass\n"]
    surface = ["f", "g", "h", "k", "C.used", "C.unused"]
    # a string names a user only in a lookup source
    assert _unreferenced(surface, sources, ['TABLE = ["g"]\n']) == ["h", "k", "C.unused"]


# -- an acyclic exact core ------------------------------------------------------

# The handlers that run a float kernel import numpy and splinecore
# themselves, so the exact commands load neither.
NUMERIC_HANDLERS = {("cli", "_cmd_cascade"), ("cli", "_cmd_ftprobe"),
                    ("cli", "_cmd_factorize_check")}


def _imports(source: str) -> list[tuple[str, Optional[str]]]:
    """(module, enclosing function or None) for every import; a relative
    import within the package is named ``refinable.<module>``."""
    found = []

    def visit(node, func):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if isinstance(child, ast.Import):
                found.extend((a.name, func) for a in child.names)
            elif isinstance(child, ast.ImportFrom) and child.module != "__future__":
                if not child.level:
                    found.append((child.module, func))
                elif child.module:
                    found.append((f"refinable.{child.module}", func))
                else:
                    found.extend((f"refinable.{a.name}", func) for a in child.names)
            visit(child, func)

    visit(ast.parse(source), None)
    return found


def _layering_faults(sources: dict[str, str]) -> list[str]:
    """Imports that break the stack: numpy or splinecore outside
    splinecore and cli, and a function-level import of numpy or a
    package module outside cli's numeric handlers."""
    faults = []
    for name, source in sorted(sources.items()):
        for module, func in _imports(source):
            numeric = module.split(".")[0] == "numpy" or module == "refinable.splinecore"
            if numeric and name not in ("splinecore", "cli"):
                faults.append(f"{name} imports {module}")
            if (func is not None and (numeric or module.startswith("refinable"))
                    and (name, func) not in NUMERIC_HANDLERS):
                faults.append(f"{name}.{func} imports {module}")
    return faults


def test_exact_core_never_imports_the_float_numerics():
    sources = {p.stem: p.read_text() for p in sorted(SRC.glob("*.py"))}
    assert _layering_faults(sources) == []
    assert all(module != "refinable.splinecore"
               for module, _ in _imports(sources["refinery"]))


def test_the_layering_check_sees_a_back_edge():
    sources = {
        "refinery": "from .splinecore import cascade_solve\n",
        "qtrig": "import numpy as np\n",
        "splinecore": "import numpy as np\ndef f():\n    from . import refinery\n",
        "cli": ("def _cmd_ftprobe(a):\n    import numpy\n    from .splinecore import g\n"
                "def _cmd_check(a):\n    from .refinery import h\n"),
    }
    assert _layering_faults(sources) == [
        "cli._cmd_check imports refinable.refinery",
        "qtrig imports numpy",
        "refinery imports refinable.splinecore",
        "splinecore.f imports refinable.refinery",
    ]


# -- no global numeric state -----------------------------------------------------


def _mpmath_imports(source: str) -> list[str]:
    """Every mpmath import other than ``from mpmath.libmp import ...``."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found += [a.name for a in node.names if a.name.split(".")[0] == "mpmath"]
        elif (isinstance(node, ast.ImportFrom) and node.module
              and node.module.split(".")[0] == "mpmath" and node.module != "mpmath.libmp"):
            found += [f"{node.module}.{a.name}" for a in node.names]
    return found


def test_library_imports_mpmath_only_as_libmp():
    found = {p.name: _mpmath_imports(p.read_text()) for p in sorted(SRC.glob("*.py"))}
    assert {name: f for name, f in found.items() if f} == {}
    source = ("import mpmath\nimport mpmath.libmp\nfrom mpmath import iv, mp\n"
              "from mpmath.libmp import mpf_add\n")
    assert _mpmath_imports(source) == ["mpmath", "mpmath.libmp", "mpmath.iv", "mpmath.mp"]


def _mpmath_users(sources: dict[str, str]) -> list[str]:
    """The modules that import mpmath in any form, and every import of a
    private name from ``enclosure``."""
    found = []
    for name, source in sorted(sources.items()):
        for module, _ in _imports(source):
            if module.split(".")[0] == "mpmath":
                found.append(name)
        for node in ast.walk(ast.parse(source)):
            if (isinstance(node, ast.ImportFrom) and node.level
                    and node.module == "enclosure"):
                found += [f"{name} imports {a.name}" for a in node.names
                          if a.name.startswith("_")]
    return sorted(set(found))


def test_only_enclosure_imports_mpmath():
    sources = {p.stem: p.read_text() for p in sorted(SRC.glob("*.py"))}
    assert _mpmath_users(sources) == ["enclosure"]
    assert _mpmath_users({"qtrig": "from .enclosure import ball, _mpi_int\n",
                          "splinecore": "from mpmath.libmp import to_str\n"}) == [
        "qtrig imports _mpi_int", "splinecore"]


def _numeric_outputs() -> list:
    """A decay report with arccos root enclosures, the float of an
    irrational element, Erdos parameters, an enclosure and witnesses."""
    from fractions import Fraction

    from refinable import (
        QQ,
        MaskSpec,
        QTrigPoly,
        decay_probe,
        erdos_params,
        field_make,
        indecomposability_witness,
    )
    from refinable.splinecore import bspline_mask

    factor = QTrigPoly(QQ, {QQ.rational(e): Fraction(c, 4) for e, c in enumerate((3, -2, 3))})
    mask = MaskSpec(QQ.rational(3), bspline_mask(2, 3).H * factor)
    x = field_make(2, 2).theta()
    ball = mask.H.eval_ball(x / 3 + Fraction(1, 7), 64)
    return [decay_probe(mask, J=20).to_jsonable(), float(x / 7), erdos_params(x, 2),
            (ball.re, ball.im, ball.prec),
            [w.to_jsonable() for w in indecomposability_witness(3, 3)]]


def test_numerics_neither_read_nor_set_the_global_precisions():
    from mpmath import iv, mp

    want = _numeric_outputs()
    saved = iv.prec, mp.prec
    try:
        iv.prec, mp.prec = 77, 31
        got = _numeric_outputs()
        assert (iv.prec, mp.prec) == (77, 31)
    finally:
        iv.prec, mp.prec = saved
    assert got == want
