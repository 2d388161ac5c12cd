"""The README's Quick start runs as written and prints what its comments say,
and its Layout names every module of the package."""

import contextlib
import io
import re
from pathlib import Path

ROOT = Path(__file__).parents[1]
README = (ROOT / "README.md").read_text()


def test_quick_start_prints_its_comments():
    block = re.search(r"## Quick start\n\n```python\n(.*?)```", README, re.S).group(1)
    want = [line.split("# ", 1)[1] for line in block.splitlines()
            if line.startswith("print(")]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block, "README.md", "exec"), {})
    got = out.getvalue().splitlines()
    # each comment is the printed line, optionally followed by a gloss
    assert len(got) == len(want)
    for line, comment in zip(got, want):
        assert comment == line or comment.startswith(line + " "), (line, comment)


def test_layout_names_every_module():
    layout = README.split("## Layout", 1)[1].split("\n## ", 1)[0]
    named = set(re.findall(r"^- `src/ncdomain/(\w+\.py)`", layout, re.M))
    modules = {p.name for p in (ROOT / "src" / "ncdomain").glob("*.py")}
    assert named == modules - {"__init__.py", "__main__.py"}
