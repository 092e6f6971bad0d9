"""The README's "Library in five lines" block runs and prints what it says.

The block is read from ``README.md`` and executed statement by statement; each
expression statement carries its expected value as the first word of its
trailing comment (``ring.flows().rank  # 1, spanned by ...``).
"""

import ast
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def library_block():
    text = README.read_text(encoding="utf-8")
    section = text.split("## Library in five lines", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_the_library_block_runs_with_its_commented_results():
    source = library_block()
    lines = source.splitlines()
    namespace = {}
    results = []
    for stmt in ast.parse(source).body:
        code = ast.get_source_segment(source, stmt)
        if not isinstance(stmt, ast.Expr):
            exec(code, namespace)
            continue
        comment = lines[stmt.end_lineno - 1].split("#", 1)[1]
        expected = ast.literal_eval(re.match(r"\s*([^\s,:]+)", comment).group(1))
        results.append((eval(code, namespace), expected))
    # repr keeps True apart from 1
    assert [repr(want) for _, want in results] == ["1", "True", "3"]
    assert [repr(got) for got, _ in results] == ["1", "True", "3"]
