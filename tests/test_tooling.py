"""Checks on the source tree and on the test configuration itself."""

import ast
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TESTS = ROOT / "tests"
PACKAGE = ROOT / "src" / "z4udna"

FAILING_HYPOTHESIS_TEST = '''
from hypothesis import given, settings, strategies as st


@settings(database=None)
@given(st.integers())
def test_fails(x):
    assert x < 0
'''


def test_package_source_has_no_assert_statements():
    # Runtime invariants raise explicit errors: python -O strips asserts.
    found = [f"{path.name}:{node.lineno}"
             for path in sorted((ROOT / "src" / "z4udna").glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.Assert)]
    assert found == []


def _calls_of(tree, name):
    return [node for node in ast.walk(tree) if isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name) and node.func.id == name]


def test_only_enumerate_code_builds_a_code():
    # Every Code is an ideal, so its minimum nonzero weight is its minimum
    # distance: the package calls Code once, in enumerate_code, and no
    # classmethod of Code calls cls.
    trees = {path.name: ast.parse(path.read_text(), str(path))
             for path in sorted((ROOT / "src" / "z4udna").glob("*.py"))}
    (code_class,) = [node for node in ast.walk(trees["cyclic.py"])
                     if isinstance(node, ast.ClassDef) and node.name == "Code"]
    (builder,) = [node for node in ast.walk(trees["cyclic.py"])
                  if isinstance(node, ast.FunctionDef) and node.name == "enumerate_code"]
    calls = [call for tree in trees.values() for call in _calls_of(tree, "Code")]
    calls += _calls_of(code_class, "cls")
    assert len(calls) == 1 and calls[0] in list(ast.walk(builder))


def test_only_poly_names_the_division_kernel():
    # poly._remainder is the one division loop, and every other module
    # tests divisibility through poly._divides.
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(PACKAGE.glob("*.py")) if path.name != "poly.py"
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if "_remainder" in (getattr(node, "id", None), getattr(node, "attr", None),
                                 getattr(node, "name", None))]
    assert found == []


def test_only_cyclic_imports_dense():
    # The key format of the span closure is _dense's own: cyclic hands it
    # rows and takes rows back, and no other module imports it.
    def names(node):
        if isinstance(node, ast.ImportFrom):
            return (node.module or "").split(".") + [alias.name for alias in node.names]
        return [part for alias in node.names for part in alias.name.split(".")]

    found = [f"{path.name}:{node.lineno}"
             for path in sorted(PACKAGE.glob("*.py")) if path.name != "cyclic.py"
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, (ast.Import, ast.ImportFrom)) and "_dense" in names(node)]
    assert found == []


def _test_trees():
    return {path.name: ast.parse(path.read_text(), str(path))
            for path in sorted(TESTS.glob("*.py"))}


def _imported_modules(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            yield node.lineno, node.module or ""
        elif isinstance(node, ast.Import):
            yield from ((node.lineno, alias.name) for alias in node.names)


def test_no_test_module_imports_another():
    # Shared slow paths live in oracles.py, not in a test module.
    found = [f"{name}:{line}" for name, tree in _test_trees().items()
             for line, module in _imported_modules(tree) if module.startswith("test_")]
    assert found == []


def test_every_oracle_is_used_by_a_test_module():
    # An oracle that no test compares a fast path against cannot linger:
    # each top-level function of oracles.py is named by some test module,
    # imported from oracles or as an attribute of it.
    trees = _test_trees()
    oracles = {node.name for node in trees.pop("oracles.py").body
               if isinstance(node, ast.FunctionDef)}
    used = set()
    for tree in trees.values():
        imported = {alias.asname or alias.name: alias.name for node in ast.walk(tree)
                    if isinstance(node, ast.ImportFrom) and node.module == "oracles"
                    for alias in node.names}
        used |= {imported[node.id] for node in ast.walk(tree)
                 if isinstance(node, ast.Name) and node.id in imported}
        used |= {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)
                 and isinstance(node.value, ast.Name) and node.value.id == "oracles"}
    assert oracles and sorted(oracles - used) == []


def _unused_imports(path):
    """The names a module imports and never reads, as "file:line name",
    skipping imports marked ``# noqa: F401``."""
    source = path.read_text()
    lines = source.splitlines()
    tree = ast.parse(source, str(path))
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound = [(alias, alias.asname or alias.name.partition(".")[0])
                     for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound = [(alias, alias.asname or alias.name) for alias in node.names]
        else:
            continue
        yield from (f"{path.relative_to(ROOT)}:{alias.lineno} {name}"
                    for alias, name in bound
                    if name not in read and "# noqa: F401" not in lines[alias.lineno - 1])


def test_every_imported_name_is_used():
    # Package __init__ modules import to re-export, so they are left out.
    paths = [path for folder in ("src/z4udna", "tests", "demos")
             for path in sorted((ROOT / folder).glob("*.py")) if path.name != "__init__.py"]
    assert paths
    assert [entry for path in paths for entry in _unused_imports(path)] == []


def _public_definitions(trees):
    """(qualified name, defining node) of each public top-level function and
    class of the package modules, and of each public non-dunder method or
    property of those classes: ``poly.divides``, ``cyclic.Code.is_reversible``."""
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
                yield f"{module}.{node.name}", node
                if isinstance(node, ast.ClassDef):
                    yield from ((f"{module}.{node.name}.{member.name}", member)
                                for member in node.body if isinstance(member, ast.FunctionDef)
                                and not member.name.startswith("_"))


def _tracer_targets():
    """``module.attribute`` of each row of the tracer's SPAN_TARGETS and
    COUNT_TARGETS, the wrappers a benchmark run calls."""
    tree = ast.parse((ROOT / "perfbench" / "tracer.py").read_text())
    return {f"{row.elts[0].value}.{row.elts[1].value}"
            for node in tree.body if isinstance(node, ast.Assign)
            and [t.id for t in node.targets] in (["SPAN_TARGETS"], ["COUNT_TARGETS"])
            for row in node.value.elts}


def test_every_public_name_has_a_caller_outside_tests():
    # A public function, class, method or property that only tests call is
    # test scaffolding: it belongs in tests/oracles.py.  The callers are
    # the package (outside the name's own definition), the demos, the
    # README quickstart and the benchmark harness, whose tracer calls each
    # name it wraps.  A function or class is read as a name or as a module
    # attribute, a method or property only as an attribute.
    trees = {path.stem: ast.parse(path.read_text(), str(path))
             for path in sorted(PACKAGE.glob("*.py")) if path.name != "__init__.py"}
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    quickstart = re.search(r"```python\n(.*?)```",
                           readme.split("## Library quickstart", 1)[1], re.S).group(1)
    callers = [*trees.values(), ast.parse(quickstart)]
    callers += [ast.parse(path.read_text(), str(path)) for folder in ("demos", "perfbench")
                for path in sorted((ROOT / folder).glob("*.py"))]
    reads = [(node.id if isinstance(node, ast.Name) else node.attr,
              isinstance(node, ast.Attribute), node)
             for tree in callers for node in ast.walk(tree)
             if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load)]
    traced = _tracer_targets()
    uncalled = []
    for qualified, definition in _public_definitions(trees):
        name = definition.name
        is_member = qualified.count(".") == 2
        inside = {id(node) for node in ast.walk(definition)}
        if qualified not in traced and not any(
                read == name and (as_attribute or not is_member) and id(node) not in inside
                for read, as_attribute, node in reads):
            uncalled.append(qualified)
    assert uncalled == []


def test_failing_hypothesis_test_is_reported_as_a_failure(tmp_path):
    # Under the repository's pytest config a failing hypothesis test must
    # fail on its own (exit 1), not abort the session with INTERNALERROR.
    (tmp_path / "test_fails.py").write_text(FAILING_HYPOTHESIS_TEST)
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(ROOT / "pyproject.toml"), "--rootdir", str(tmp_path), "test_fails.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 1, proc.stdout + proc.stderr
    assert "INTERNALERROR" not in proc.stdout + proc.stderr
    assert "1 failed" in proc.stdout.splitlines()[-1]
