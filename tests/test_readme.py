"""The README's Example block runs as written and prints what its comments say."""

import ast
import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def example_block() -> str:
    text = README.read_text()
    section = text[text.index("## Example"):]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_example_block_matches_its_comments():
    code = example_block()
    namespace: dict = {}
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, str(README), "exec"), namespace)
    checked = []
    for line in code.splitlines():
        expr, _, comment = line.partition("#")
        if not comment.strip() or expr.lstrip().startswith("print"):
            continue
        expected = ast.literal_eval(comment.strip())
        assert eval(expr, namespace) == expected, line
        checked.append(expected)
    assert checked == [(0.0, 0.49999999999999994, 0.5773502691896257), [3, 6, 7]]
    # print(export_dot(...))   # 8 classes, 8 cover arrows
    assert "# 8 classes, 8 cover arrows" in code
    dot = out.getvalue()
    assert dot.startswith("digraph hasse {")
    assert len(re.findall(r'^  c\d+ \[label=', dot, re.M)) == 8
    assert len(re.findall(r"^  c\d+ -> c\d+;$", dot, re.M)) == 8
