"""The README's library quickstart runs, and prints what its comments say,
and its command lines parse."""

import ast
import re
import shlex
from pathlib import Path
from types import ModuleType

import z4udna
from z4udna.cli import build_parser

README = Path(__file__).resolve().parents[1] / "README.md"


def quickstart_source() -> str:
    text = README.read_text(encoding="utf-8")
    section = text.split("## Library quickstart", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_quickstart_values_match_their_comments():
    """Each expression statement ends in a ``# value`` comment: the repr of
    its value.  The other statements are run as they stand."""
    source = quickstart_source()
    lines = source.splitlines()
    namespace: dict = {}
    comments = []
    for node in ast.parse(source).body:
        if isinstance(node, ast.Expr):
            comment = lines[node.end_lineno - 1].partition("#")[2].strip()
            value = eval(compile(ast.Expression(node.value), "README", "eval"), namespace)
            comments.append(comment)
            assert repr(value) == comment, ast.unparse(node.value)
        else:
            exec(compile(ast.Module([node], []), "README", "exec"), namespace)
    assert comments == ["16", "3", "True", "True", "3"]


def test_package_root_holds_exactly_the_quickstart_names():
    """Every other public name is imported from its module, so the root's
    public names that are not modules are those the quickstart imports."""
    line = re.search(r"^from z4udna import (.*)$", quickstart_source(), re.M).group(1)
    names = {name.strip() for name in line.split(",")}

    def non_modules(attrs):
        return {a for a in attrs
                if not a.startswith("_") and not isinstance(getattr(z4udna, a), ModuleType)}

    assert non_modules(vars(z4udna)) == non_modules(names)


def test_command_line_block_parses():
    """Each ``z4udna`` line of the "Command line" block, with its optional
    ``[ ]`` flags written out and its ``#`` comment dropped, parses; the
    ``...`` line only names an alias."""
    section = README.read_text(encoding="utf-8").split("## Command line", 1)[1]
    block = re.search(r"```\n(.*?)```", section, re.S).group(1)
    parser = build_parser()
    parsed = 0
    for line in block.splitlines():
        line = line.partition("#")[0].replace("[", "").replace("]", "")
        if not line.startswith("z4udna ") or "..." in line:
            continue
        try:
            parser.parse_args(shlex.split(line)[1:])
        except SystemExit:
            raise AssertionError(f"README command does not parse: {line.strip()}") from None
        parsed += 1
    assert parsed == 7
