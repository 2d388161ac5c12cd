"""Every public name is reached by the package or the benchmark, not by tests alone.

A name counts as reached when some file of `src/ncdomain` or
`bench/workloads.py` loads it, as a name or an attribute, outside its own
definition.
"""

import ast
from pathlib import Path

import ncdomain

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src" / "ncdomain").glob("*.py")) + [ROOT / "bench" / "workloads.py"]

# exports that only the tests reach: the backlog of ROADMAP item 9, which
# either puts them behind a command or drops them from the exports
TEST_ONLY = {"map_image_check"}


def _loaded_names(path: Path) -> set[str]:
    """Names and attributes the file loads, outside the definitions of the same name."""
    found = set()

    def visit(node, inside):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            inside = inside | {node.name}
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            found.update({node.id} - inside)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            found.update({node.attr} - inside)
        for child in ast.iter_child_nodes(node):
            visit(child, inside)

    visit(ast.parse(path.read_text()), frozenset())
    return found


def test_every_export_outside_the_backlog_is_reached():
    reached = set().union(*(_loaded_names(p) for p in SOURCES))
    assert {name for name in ncdomain.__all__ if name not in reached} == TEST_ONLY


def test_a_name_used_only_in_its_own_definition_is_not_reached(tmp_path):
    path = tmp_path / "module.py"
    path.write_text(
        "class Point:\n"
        "    def moved(self):\n"
        "        return Point()\n"
        "def walk(n):\n"
        "    return walk(n - 1) if n else Point().moved()\n"
    )
    loaded = _loaded_names(path)
    assert "Point" in loaded and "moved" in loaded
    assert "walk" not in loaded
