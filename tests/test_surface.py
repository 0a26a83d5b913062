"""Every function, class and method that ``projdyn`` defines has a caller.

A name counts as used when it occurs as a Python name token (a ``tokenize``
NAME) in ``src/``, ``demos/``, ``perfbench/`` or ``tools/``, other than the
name that a ``def`` or ``class`` statement introduces.  Comments, docstrings
and other strings are not name tokens, so a name that occurs only in prose
has no caller.  Tests do not count: a helper that only tests call belongs in
``tests/oracles.py``."""

import ast
import io
import pathlib
import tokenize

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "projdyn"
CALLER_DIRS = ("src", "demos", "perfbench", "tools")

# name -> why it stays without a caller
ALLOWED = {
    "QuadraticIntegral": "the result type of a quadratic first integral; the integrals finder will return it",
    "flat_form_tensor": "acceptance and CLI tests build their inputs with it",
    "monomial": "Poly.monomial: acceptance and CLI tests build their inputs with it",
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


def used_names():
    """Every NAME token of the caller directories' Python files, except the
    one after each ``def`` or ``class``."""
    used = set()
    for d in CALLER_DIRS:
        for path in sorted((ROOT / d).rglob("*.py")):
            previous = None
            for token in tokenize.generate_tokens(io.StringIO(path.read_text()).readline):
                if token.type == tokenize.NAME and previous not in ("def", "class"):
                    used.add(token.string)
                if token.type not in (tokenize.NL, tokenize.COMMENT):
                    previous = token.string
    return used


def test_every_src_name_has_a_caller_outside_tests():
    used = used_names()
    unused = {name: where for name, where in defined_names().items() if name not in ALLOWED and name not in used}
    assert unused == {}, f"no caller outside tests (delete, or move to tests/oracles.py): {unused}"


def test_the_allowlist_names_only_defined_names_without_a_caller():
    names, used = defined_names(), used_names()
    assert all(name in names and name not in used for name in ALLOWED)
