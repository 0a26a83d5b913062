"""Every function, class and method that ``projdyn`` defines has a caller.

A function or class counts as used when its name occurs as a Python name
token (a ``tokenize`` NAME) in ``src/``, ``demos/``, ``perfbench/`` or
``tools/``, other than the name that a ``def`` or ``class`` statement
introduces.  A method (a ``def`` directly in a class body) counts as used
only through an attribute access (``obj.name``) or a ``getattr(obj,
"name", ...)``: a local variable of the same name is no call.  Comments,
docstrings and other strings are not name tokens, so a name that occurs only
in prose has no caller.  Tests do not count: a helper that only tests call
belongs in ``tests/oracles.py``."""

import ast
import io
import pathlib
import tokenize

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "projdyn"
CALLER_DIRS = ("src", "demos", "perfbench", "tools")

# name (Class.method for a method) -> why it stays without a caller
ALLOWED = {
    "flat_form_tensor": "acceptance and CLI tests build their inputs with it",
}


def defined_names():
    """{name: ["module.py:line", ...]} for every non-dunder def and class; a
    method is named ``Class.method``."""
    out = {}
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        owners = {id(child): node.name for node in ast.walk(tree) if isinstance(node, ast.ClassDef)
                  for child in node.body}
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if not (node.name.startswith("__") and node.name.endswith("__")):
                    owner = owners.get(id(node)) if not isinstance(node, ast.ClassDef) else None
                    name = node.name if owner is None else f"{owner}.{node.name}"
                    out.setdefault(name, []).append(f"{path.name}:{node.lineno}")
    return out


def caller_files():
    for d in CALLER_DIRS:
        yield from sorted((ROOT / d).rglob("*.py"))


def used_names():
    """Every NAME token of the caller directories' Python files, except the
    one after each ``def`` or ``class``."""
    used = set()
    for path in caller_files():
        previous = None
        for token in tokenize.generate_tokens(io.StringIO(path.read_text()).readline):
            if token.type == tokenize.NAME and previous not in ("def", "class"):
                used.add(token.string)
            if token.type not in (tokenize.NL, tokenize.COMMENT):
                previous = token.string
    return used


def used_attributes():
    """Every attribute name the caller directories read: ``obj.name`` and the
    string of ``getattr(obj, "name", ...)``."""
    used = set()
    for path in caller_files():
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "getattr"
                  and len(node.args) > 1 and isinstance(node.args[1], ast.Constant)):
                used.add(node.args[1].value)
    return used


def is_used(name, names, attributes):
    return name.rpartition(".")[2] in attributes if "." in name else name in names


def test_every_src_name_has_a_caller_outside_tests():
    names, attributes = used_names(), used_attributes()
    unused = {name: where for name, where in defined_names().items()
              if name not in ALLOWED and not is_used(name, names, attributes)}
    assert unused == {}, f"no caller outside tests (delete, or move to tests/oracles.py): {unused}"


def test_the_allowlist_names_only_defined_names_without_a_caller():
    defined, names, attributes = defined_names(), used_names(), used_attributes()
    assert all(name in defined and not is_used(name, names, attributes) for name in ALLOWED)


def test_a_method_counts_as_used_only_through_an_attribute():
    names, attributes = {"basis", "degree"}, {"degree"}
    assert not is_used("SparseEchelon.basis", names, attributes)
    assert is_used("Poly.degree", names, attributes)
    assert is_used("basis", names, attributes)
