"""Every imported name in the package and its tests is used, the package
imports only the standard library and itself, every private module-level
name and private method in the package is referenced somewhere in it,
only errors.require_int tests whether a value is an int, only
mechanism._record builds a round's record, each valuation form name is
written once, on its class's `form =` line, per-item sums are walked by
hand only in the rationality scan, and the reference auction's module,
tests/helpers.py, reaches no private name of the package and names none
of the engine's store.

No linter ships with the project, so these scans are the guard: an import
that nothing references fails here, and so does an import of a module
outside `sys.stdlib_module_names` and smra (the project declares no
dependencies, so such an import works only where the package happens to
be installed), a `_name` function, class, constant or method that no
module of the package uses any more, a `type(x) is int` or
`isinstance(x, bool)` test outside errors.py, or a `RoundRecord(...)` or
`Draw(...)` call outside mechanism._record and the trace reader, or a
string literal equal to a valuation form name (such as "symmetric_step")
anywhere but that line, or a subscript by a low bit's index
(`w[low.bit_length() - 1]`) or by `mask & (mask - 1)` outside
RationalityScan._examine. The package's __init__.py is exempt from the
unused-import scan, since its imports are the public re-exports.
"""

import ast
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted(ROOT.glob("src/smra/*.py"))
FILES = sorted(
    path
    for path in [*PACKAGE, *ROOT.glob("tests/*.py")]
    if path.name != "__init__.py"
)


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in imported.items()
            if name not in used]


def test_scan_sees_an_unused_import():
    assert unused_imports("import os\nfrom a import b, c as d\nd()\n") == [
        "os (line 1)", "b (line 2)",
    ]


@pytest.mark.parametrize("path", FILES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def foreign_imports(source: str) -> list[str]:
    """Absolute imports of a module that is neither in the standard
    library nor smra, in line order; relative imports stay in the
    package."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            names = [node.module]
        else:
            continue
        found += [(node.lineno, f"{name} (line {node.lineno})")
                  for name in names if name.split(".")[0] != "smra"
                  and name.split(".")[0] not in sys.stdlib_module_names]
    return [text for _, text in sorted(found)]


def test_scan_sees_a_third_party_import():
    source = ("import os.path, numpy as np\nfrom . import oracle\n"
              "from .errors import require_int\nfrom smra.itemsets import x\n"
              "def f():\n    from scipy.sparse import csr_matrix\n"
              "    import smra, json, yaml\n")
    assert foreign_imports(source) == [
        "numpy (line 1)", "scipy.sparse (line 6)", "yaml (line 7)"]
    assert foreign_imports("from __future__ import annotations\n") == []


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: p.name)
def test_the_package_imports_only_the_standard_library(path):
    assert foreign_imports(path.read_text(encoding="utf-8")) == []


def private_definitions(source: str) -> set[str]:
    """Module-level `_name` functions, classes and assigned constants, and
    `_name` methods of module-level classes."""
    names = set()
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        if isinstance(node, ast.ClassDef):
            names.update(item.name for item in node.body if isinstance(
                item, (ast.FunctionDef, ast.AsyncFunctionDef)))
        elif isinstance(node, ast.Assign):
            names.update(t.id for t in node.targets if isinstance(t, ast.Name))
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names.add(node.target.id)
    return {name for name in names
            if name.startswith("_") and not name.startswith("__")}


def referenced_names(source: str) -> set[str]:
    """Every name the source reads, reaches as an attribute, or imports."""
    used = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            used.update(alias.name for alias in node.names)
    return used


def orphaned_private_names(sources: dict[str, str]) -> list[str]:
    used = set().union(*map(referenced_names, sources.values()))
    return sorted(f"{name} ({path})" for path, source in sources.items()
                  for name in private_definitions(source) if name not in used)


def test_scan_sees_an_orphaned_private_name():
    sources = {
        "a.py": "_LIMIT = 3\n_kept: int = 0\ndef _orphan(): pass\n"
                "class _Gone: pass\ndef public(): return _helper(_LIMIT)\n",
        "b.py": "from a import _kept\ndef _helper(x): return x\n"
                "class Cache:\n    def __init__(self): self._fill()\n"
                "    def _fill(self): pass\n    def _stale(self): pass\n",
    }
    assert orphaned_private_names(sources) == [
        "_Gone (a.py)", "_orphan (a.py)", "_stale (b.py)"]


def test_no_orphaned_private_names():
    sources = {path.name: path.read_text(encoding="utf-8") for path in PACKAGE}
    assert orphaned_private_names(sources) == []


def integer_type_tests(source: str) -> list[str]:
    """`type(...) is int`, `type(...) is not int` and `isinstance(..., bool)`
    tests in the source, in line order."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Compare):
            hit = (isinstance(node.left, ast.Call)
                   and isinstance(node.left.func, ast.Name)
                   and node.left.func.id == "type"
                   and isinstance(node.ops[0], (ast.Is, ast.IsNot))
                   and isinstance(node.comparators[0], ast.Name)
                   and node.comparators[0].id == "int")
        elif isinstance(node, ast.Call):
            hit = (isinstance(node.func, ast.Name)
                   and node.func.id == "isinstance" and len(node.args) == 2
                   and any(isinstance(n, ast.Name) and n.id == "bool"
                           for n in ast.walk(node.args[1])))
        else:
            hit = False
        if hit:
            found.append((node.lineno, f"{ast.unparse(node)} (line {node.lineno})"))
    return [text for _, text in sorted(found)]


def test_scan_sees_an_integer_type_test():
    source = ("a = type(x) is int\nb = type(y) is not int\n"
              "c = isinstance(z, bool)\nd = isinstance(w, (int, bool))\n"
              "e = isinstance(v, int) or type(u) is str\n")
    assert integer_type_tests(source) == [
        "type(x) is int (line 1)", "type(y) is not int (line 2)",
        "isinstance(z, bool) (line 3)", "isinstance(w, (int, bool)) (line 4)",
    ]


@pytest.mark.parametrize("path", [p for p in PACKAGE if p.name != "errors.py"],
                         ids=lambda p: p.name)
def test_only_require_int_tests_for_ints(path):
    assert integer_type_tests(path.read_text(encoding="utf-8")) == []


# The functions of mechanism.py that may build records: the one builder,
# and the trace reader with its draw parser.
RECORD_BUILDERS = {"_record", "read_trace_jsonl", "_draw"}


def record_builds(source: str, builders: set[str]) -> list[str]:
    """`RoundRecord(...)` and `Draw(...)` calls outside the module-level
    functions named in `builders`, in line order."""
    found = []
    for top in ast.parse(source).body:
        if getattr(top, "name", None) in builders:
            continue
        for node in ast.walk(top):
            if isinstance(node, ast.Call):
                func = node.func
                name = (func.id if isinstance(func, ast.Name) else
                        func.attr if isinstance(func, ast.Attribute) else None)
                if name in ("RoundRecord", "Draw"):
                    found.append(
                        (node.lineno, f"{name}(...) (line {node.lineno})"))
    return [text for _, text in sorted(found)]


def test_scan_sees_a_record_built_outside_the_builder():
    source = ("def _record(t):\n    return RoundRecord(t, Draw(1))\n"
              "def run():\n    x = RoundRecord(0)\n"
              "    return mechanism.Draw(2)\n"
              "class Replay:\n    def step(self):\n        return Draw(3)\n")
    assert record_builds(source, RECORD_BUILDERS) == [
        "RoundRecord(...) (line 4)", "Draw(...) (line 5)", "Draw(...) (line 8)"]
    assert record_builds(source, set()) == [
        "Draw(...) (line 2)", "RoundRecord(...) (line 2)",
        "RoundRecord(...) (line 4)", "Draw(...) (line 5)", "Draw(...) (line 8)"]


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: p.name)
def test_only_the_builder_builds_round_records(path):
    builders = RECORD_BUILDERS if path.name == "mechanism.py" else set()
    assert record_builds(path.read_text(encoding="utf-8"), builders) == []


def form_declarations(source: str) -> list[ast.Constant]:
    """The string constants of `form = "..."` lines in class bodies."""
    return [
        item.value
        for node in ast.walk(ast.parse(source)) if isinstance(node, ast.ClassDef)
        for item in node.body
        if isinstance(item, ast.Assign) and isinstance(item.value, ast.Constant)
        and [ast.unparse(t) for t in item.targets] == ["form"]
    ]


def form_name_literals(source: str, names: set[str]) -> list[str]:
    """String literals equal to one of `names` outside a class body's
    `form =` line, in line order."""
    tree = ast.parse(source)
    declared = {(c.lineno, c.col_offset) for c in form_declarations(source)}
    found = [
        (node.lineno, f"{node.value!r} (line {node.lineno})")
        for node in ast.walk(tree)
        if isinstance(node, ast.Constant) and node.value in names
        and (node.lineno, node.col_offset) not in declared
    ]
    return [text for _, text in sorted(found)]


def test_scan_sees_a_form_name_outside_its_class():
    source = ('class Step:\n    form = "step"\n    kind = "step"\n'
              'def load(spec):\n    if spec["form"] == "step":\n'
              '        return {"form": "step", "note": "step up"}\n'
              'class Other:\n    form = "other"\n')
    assert [c.value for c in form_declarations(source)] == ["step", "other"]
    assert form_name_literals(source, {"step", "other"}) == [
        "'step' (line 3)", "'step' (line 5)", "'step' (line 6)"]


FORM_NAMES = {c.value for path in PACKAGE
              for c in form_declarations(path.read_text(encoding="utf-8"))}


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: p.name)
def test_form_names_appear_only_on_their_class_line(path):
    assert "symmetric_step" in FORM_NAMES
    assert form_name_literals(path.read_text(encoding="utf-8"),
                              FORM_NAMES) == []


# Per-mask tables of per-item sums come from itemsets.subset_sums; the
# one hand-rolled doubling left is the rationality scan's hot path.
LOW_BIT_WALKERS = {"RationalityScan._examine"}


def _is_low_bit_index(node: ast.AST) -> bool:
    """`x.bit_length() - 1` or `x & (x - 1)`."""
    if not isinstance(node, ast.BinOp):
        return False
    if isinstance(node.op, ast.Sub):
        call = node.left
        return (isinstance(node.right, ast.Constant) and node.right.value == 1
                and isinstance(call, ast.Call) and not call.args
                and isinstance(call.func, ast.Attribute)
                and call.func.attr == "bit_length")
    return (isinstance(node.op, ast.BitAnd) and isinstance(node.right, ast.BinOp)
            and isinstance(node.right.op, ast.Sub)
            and isinstance(node.right.right, ast.Constant)
            and node.right.right.value == 1
            and ast.unparse(node.left) == ast.unparse(node.right.left))


def low_bit_subscripts(source: str, walkers: set[str]) -> list[str]:
    """Subscripts by a low bit's index or by `mask & (mask - 1)` outside
    the module-level functions and `Class.method`s named in `walkers`, in
    line order."""
    scopes = []
    for top in ast.parse(source).body:
        if isinstance(top, ast.ClassDef):
            scopes += [(f"{top.name}.{getattr(item, 'name', '')}", item)
                       for item in top.body]
        else:
            scopes.append((getattr(top, "name", None), top))
    found = [
        (node.lineno, node.col_offset,
         f"{ast.unparse(node)} (line {node.lineno})")
        for name, scope in scopes if name not in walkers
        for node in ast.walk(scope)
        if isinstance(node, ast.Subscript) and _is_low_bit_index(node.slice)
    ]
    return [text for _, _, text in sorted(found)]


def test_scan_sees_a_hand_rolled_low_bit_walk():
    source = ("def walk(w, mask):\n    low = mask & -mask\n"
              "    return w[low.bit_length() - 1] + t[mask & (mask - 1)]\n"
              "class Scan:\n    def _examine(self, p, low):\n"
              "        return p[low.bit_length() - 1]\n"
              "    def other(self, p, m, n):\n"
              "        return p[m & (n - 1)] + p[m.bit_length()] + p[m & (m - 1)]\n"
              "x = p[(1 << 3).bit_length() - 1]\n")
    assert low_bit_subscripts(source, {"Scan._examine"}) == [
        "w[low.bit_length() - 1] (line 3)", "t[mask & mask - 1] (line 3)",
        "p[m & m - 1] (line 8)", "p[(1 << 3).bit_length() - 1] (line 9)"]
    assert low_bit_subscripts(source, set())[2] == (
        "p[low.bit_length() - 1] (line 6)")


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: p.name)
def test_per_item_sums_come_from_subset_sums(path):
    assert low_bit_subscripts(path.read_text(encoding="utf-8"),
                              LOW_BIT_WALKERS) == []


# The reference auction in tests/helpers.py is written from the mechanism
# docstring alone: it may not reach into the package or name its store.
STORE_NAMES = {"PreparedBidders", "segments", "DECISION_CACHE_LIMIT"}


def _private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def engine_internals(source: str) -> list[str]:
    """A `_name` imported from smra or read off a name imported from it
    (by attribute or getattr), and every mention of a store name, in line
    order."""
    tree = ast.parse(source)
    bases, found = set(), []
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            module = node.module + "." if isinstance(node, ast.ImportFrom) else ""
            for alias in node.names:
                path = module + alias.name
                if path.split(".")[0] != "smra":
                    continue
                bases.add(alias.asname or (alias.name if module
                                           else path.split(".")[0]))
                if any(map(_private, path.split("."))) or alias.name in STORE_NAMES:
                    found.append((alias.lineno, alias.col_offset,
                                  f"{path} (line {alias.lineno})"))
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            base, name = node.value, node.attr
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id == "getattr" and len(node.args) > 1
              and isinstance(node.args[1], ast.Constant)):
            base, name = node.args[0], node.args[1].value
        elif isinstance(node, ast.Name):
            base, name = None, node.id
        else:
            continue
        reached = (isinstance(base, ast.Name) and base.id in bases
                   and _private(name))
        if reached or name in STORE_NAMES:
            found.append((node.lineno, node.col_offset,
                          f"{name} (line {node.lineno})"))
    return [text for *_, text in sorted(found)]


def test_scan_sees_the_engine_reached_into():
    source = ("from smra import BidContext, mechanism as mech\n"
              "from smra.mechanism import _plan_round, PreparedBidders\n"
              "import smra.itemsets\n"
              "x = mech._settle(smra.itemsets, other._private, mech.__doc__)\n"
              "y = getattr(mech, '_record'), getattr(mech, 'run_auction')\n"
              "z = prepared.segments, smra._x, DECISION_CACHE_LIMIT\n")
    assert engine_internals(source) == [
        "smra.mechanism._plan_round (line 2)",
        "smra.mechanism.PreparedBidders (line 2)", "_settle (line 4)",
        "_record (line 5)", "segments (line 6)", "_x (line 6)",
        "DECISION_CACHE_LIMIT (line 6)"]
    assert engine_internals("from smra.itemsets import subset_sums\n") == []


def test_the_reference_auction_stands_apart_from_the_engine():
    source = (ROOT / "tests" / "helpers.py").read_text(encoding="utf-8")
    assert "def reference_auction(" in source
    assert engine_internals(source) == []
