"""Unused-import check for the Python sources: an ``ast`` mirror of ruff's F401.

An import is used when the name it binds is read in the scope that imports
it (a module-level import anywhere in the module, a function's import inside
that function), is listed in the module's ``__all__``, or appears in a
string annotation (``"DynamicPASS"``, ``list["Box"]``) or the type argument
of ``typing.cast``.  A mention in a docstring or comment is not a use.  An
import line carrying ``# noqa`` (bare, or naming F401) is skipped, as are
``from __future__`` imports.  The docs CI job runs it, so the F401 part of
the lint gate holds where ruff is unavailable.

Run from the repository root::

    python tools/check_unused_imports.py          # src tests benchmarks examples tools
    python tools/check_unused_imports.py PATH...  # other files or directories
"""

from __future__ import annotations

import argparse
import ast
import re
import sys
from pathlib import Path

DEFAULT_PATHS = ("src", "tests", "benchmarks", "examples", "tools")
_NOQA = re.compile(r"#\s*noqa(?::\s*(?P<codes>[A-Z0-9, ]+))?", re.IGNORECASE)
_SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)


def _names_in_source(source: str) -> set[str]:
    """Names read by a string annotation; nothing if it does not parse."""
    try:
        tree = ast.parse(source.strip(), mode="eval")
    except SyntaxError:
        return set()
    return _names_read(tree)


def _names_read(node: ast.AST) -> set[str]:
    """Every name ``node`` reads, string annotations included."""
    names: set[str] = set()
    for child in ast.walk(node):
        if isinstance(child, ast.Name) and isinstance(child.ctx, ast.Load):
            names.add(child.id)
        annotations: list[ast.AST | None] = []
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotations.append(child.returns)
        elif isinstance(child, ast.arg):
            annotations.append(child.annotation)
        elif isinstance(child, ast.AnnAssign):
            annotations.append(child.annotation)
        elif isinstance(child, ast.Call) and child.args:
            func = child.func
            if isinstance(func, ast.Attribute):
                name = func.attr
            else:
                name = getattr(func, "id", "")
            if name == "cast":
                annotations.append(child.args[0])
        for annotation in annotations:
            if annotation is None:
                continue
            for part in ast.walk(annotation):
                if isinstance(part, ast.Constant) and isinstance(part.value, str):
                    names |= _names_in_source(part.value)
    return names


def _dunder_all(tree: ast.Module) -> set[str]:
    """The strings assigned or added to ``__all__`` at module level."""
    exported: set[str] = set()
    for node in tree.body:
        if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            if any(isinstance(t, ast.Name) and t.id == "__all__" for t in targets):
                value = node.value
                if isinstance(value, (ast.List, ast.Tuple)):
                    exported |= {
                        element.value
                        for element in value.elts
                        if isinstance(element, ast.Constant)
                        and isinstance(element.value, str)
                    }
    return exported


def _noqa_f401(line: str) -> bool:
    match = _NOQA.search(line)
    if match is None:
        return False
    codes = match.group("codes")
    return codes is None or "F401" in codes.upper()


def unused_imports(path: Path) -> list[str]:
    """``path:line: F401 'name' imported but unused`` for each finding."""
    source = path.read_text(encoding="utf-8")
    tree = ast.parse(source)
    lines = source.splitlines()
    exported = _dunder_all(tree)
    used_in: dict[int, set[str]] = {}

    def scope_names(scope: ast.AST) -> set[str]:
        if id(scope) not in used_in:
            used_in[id(scope)] = _names_read(scope)
        return used_in[id(scope)]

    findings: list[str] = []

    def visit(node: ast.AST, scope: ast.AST) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.Import, ast.ImportFrom)):
                if isinstance(child, ast.ImportFrom) and child.module == "__future__":
                    continue
                end = getattr(child, "end_lineno", child.lineno)
                if any(_noqa_f401(lines[n - 1]) for n in range(child.lineno, end + 1)):
                    continue
                for alias in child.names:
                    if alias.name == "*":
                        continue
                    bound = alias.asname or alias.name.split(".")[0]
                    if bound in scope_names(scope):
                        continue
                    if scope is tree and bound in exported:
                        continue
                    findings.append(
                        f"{path}:{child.lineno}: F401 "
                        f"'{alias.name}' imported but unused"
                    )
            visit(child, child if isinstance(child, _SCOPES) else scope)

    visit(tree, tree)
    return findings


def main(argv: list[str] | None = None) -> int:
    """Check every ``*.py`` under the given paths; exit 1 on any finding."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("paths", nargs="*", default=list(DEFAULT_PATHS))
    args = parser.parse_args(argv)

    files: list[Path] = []
    for name in args.paths:
        path = Path(name)
        files.extend(sorted(path.rglob("*.py")) if path.is_dir() else [path])
    findings = [finding for path in files for finding in unused_imports(path)]
    for finding in findings:
        print(finding)
    if findings:
        print(f"FAIL: {len(findings)} unused imports in {len(files)} files")
        return 1
    print(f"unused-import check passed ({len(files)} files)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
