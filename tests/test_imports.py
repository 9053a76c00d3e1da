"""Every module of the package uses each name it imports."""

import ast
from pathlib import Path

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
    """Every name ``refinable/__init__.py`` imports, and "Class.method"
    for each public method or property of an exported class."""
    import inspect

    import refinable

    tree = ast.parse((SRC / "__init__.py").read_text())
    names = [alias.asname or alias.name for node in ast.walk(tree)
             if isinstance(node, ast.ImportFrom) for alias in node.names]
    surface = list(names)
    for name in names:
        obj = getattr(refinable, name)
        if inspect.isclass(obj):
            surface += [f"{name}.{attr}" for attr, val in vars(obj).items()
                        if not attr.startswith("_")
                        and (inspect.isfunction(val)
                             or isinstance(val, (staticmethod, classmethod, property)))]
    return surface


def _unreferenced(surface: list[str], sources: list[str]) -> list[str]:
    """The entries of ``surface`` whose last dotted part no source
    mentions as a Name, an Attribute or a string constant."""
    refs: set[str] = set()
    for source in sources:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Name):
                refs.add(node.id)
            elif isinstance(node, ast.Attribute):
                refs.add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                refs.add(node.value)
    return [name for name in surface if name.rsplit(".", 1)[-1] not in refs]


def test_every_public_name_has_a_user():
    sources = [p.read_text() for p in MODULES + sorted(PERFBENCH.glob("*.py"))]
    unused = _unreferenced(_public_surface(), sources)
    assert sorted(unused) == sorted(KEPT_WITHOUT_CALLER)


def test_the_check_sees_an_unused_name():
    sources = ["x = f(1)\n", "obj.used()\n", 'TABLE = ["g"]\n', "def h():\n    pass\n"]
    surface = ["f", "g", "h", "C.used", "C.unused"]
    assert _unreferenced(surface, sources) == ["h", "C.unused"]
