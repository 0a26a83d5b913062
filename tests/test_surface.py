"""Every function, class and method that ``projdyn`` defines has a caller.

A name counts as used when it occurs as a word in ``src/`` outside a line
that defines it, or anywhere in ``demos/``, ``perfbench/`` or ``tools/``.
Tests do not count: a helper that only tests call belongs in
``tests/oracles.py``.  The guard reads words, not calls, so a name that
also occurs in prose (``apply``, ``state``) can escape it."""

import ast
import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "projdyn"
CALLER_DIRS = ("src", "demos", "perfbench", "tools")

# name -> why it stays without a caller
ALLOWED = {
    "QuadraticIntegral": "the result type of a quadratic first integral; the integrals finder will return it",
}


def defined_names():
    """{name: ["module.py:line", ...]} for every non-dunder def and class."""
    out = {}
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if not (node.name.startswith("__") and node.name.endswith("__")):
                    out.setdefault(node.name, []).append(f"{path.name}:{node.lineno}")
    return out


def caller_lines():
    return [line for d in CALLER_DIRS for path in sorted((ROOT / d).rglob("*.py"))
            for line in path.read_text().splitlines()]


def is_used(name, lines):
    word = re.compile(rf"\b{re.escape(name)}\b")
    definition = re.compile(rf"^\s*(?:async\s+def|def|class)\s+{re.escape(name)}\b")
    return any(word.search(line) and not definition.match(line) for line in lines)


def test_every_src_name_has_a_caller_outside_tests():
    lines = caller_lines()
    unused = {name: where for name, where in defined_names().items()
              if name not in ALLOWED and not is_used(name, lines)}
    assert unused == {}, f"no caller outside tests (delete, or move to tests/oracles.py): {unused}"


def test_the_allowlist_names_only_defined_names_without_a_caller():
    names, lines = defined_names(), caller_lines()
    assert all(name in names and not is_used(name, lines) for name in ALLOWED)
