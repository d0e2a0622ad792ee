"""Checks on the source tree and on the test configuration itself."""

import ast
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

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
