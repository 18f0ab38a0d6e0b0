"""Layout of `src/tomoscreen`: the package says each thing once.

Every top-level function and class is used by the package itself: it is
referenced in its own module, or another package module imports it by
name. Code that only tests reach belongs in the tests (an oracle lives in
conftest.py). `cli.main` is exempt: it is the console entry point. The
check reads the source with `ast`, so a name in a string or a comment does
not count as a use.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "tomoscreen"
ENTRY_POINTS = {"cli.main"}


def unused_definitions(package: Path) -> list[str]:
    """`module.name` of each top-level function or class in `package` that
    its own module never loads and no other package module imports."""
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(package.glob("*.py"))}
    imported = {
        f"{node.module.rpartition('.')[2]}.{alias.name}"
        for tree in trees.values()
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        and node.module
        and (node.level or node.module.startswith(f"{package.name}."))
        for alias in node.names
    }
    unused = []
    for module, tree in trees.items():
        loaded = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in tree.body:
            name = f"{module}.{getattr(node, 'name', '')}"
            if (
                isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                and node.name not in loaded
                and name not in imported | ENTRY_POINTS
            ):
                unused.append(name)
    return unused


def test_every_definition_has_a_caller_in_the_package():
    assert unused_definitions(PACKAGE) == []


def test_the_check_flags_what_only_tests_reach(tmp_path):
    package = tmp_path / "tomoscreen"
    package.mkdir()
    (package / "a.py").write_text(
        "def used():\n    return helper()\n\n\n"
        "def helper():\n    return 1\n\n\n"
        "def shared():\n    return 2\n\n\n"
        "class Dead:\n    '''Named in a string only: Dead.'''\n\n\n"
        "def dead():\n    return 'dead'\n"
    )
    (package / "b.py").write_text(
        "from .a import shared\nfrom tomoscreen.a import used\n\n\n"
        "def main():\n    return shared() + used()\n"
    )
    assert unused_definitions(package) == ["a.Dead", "a.dead", "b.main"]
