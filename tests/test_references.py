"""Every top-level function, class and method of ``chargenet`` has a caller in
the package or the benchmark.

Both trees are parsed with ``ast``. A definition counts as referenced when
its name appears as a name, an attribute or a whole string constant (the
benchmark's tracer names the functions it wraps by string) anywhere in
``src/chargenet`` or ``perfbench``. An import alone does not count, nor does
a reference from the tests. Dunder methods are called by Python itself and
are exempt.

``TEST_ONLY`` lists the definitions that only the tests call today; they
wait for a command-line entry point. ``TRACE_ONLY`` lists the definitions
that only the benchmark's tracer names, by string: the model no longer runs
them, so their spans measure nothing. Both lists can only shrink: a listed
name that gains a caller, or that no longer exists, fails too, and so does a
definition that newly has no caller but the tracer.

The same parse checks that ``ndtensor.sgd_step`` is the one function in
``src/chargenet`` that writes into a tensor's ``.data`` array in place, which
the model's article cache relies on. Rebinding ``x.data`` to a new array is
not a write into the old one.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "chargenet"
TREES = (PACKAGE, ROOT / "perfbench")

TEST_ONLY = {
    "recall_at_k", "save_model", "load_model",
    "prediction_record", "render_judgement", "assemble_case", "assemble_dataset",
    "VariantReport.to_jsonl", "VariantReport.to_text", "compare_variants",
}

TRACE_ONLY = {"gru_step", "bigru_encode", "attentive_pool"}


def parsed(tree: Path) -> list[tuple[Path, ast.Module]]:
    return [(path, ast.parse(path.read_text(), filename=str(path)))
            for path in sorted(tree.rglob("*.py"))]


def definitions() -> dict[str, str]:
    """Qualified name (``f``, ``C`` or ``C.m``) -> the name a caller uses."""
    found = {}
    for path, module in parsed(PACKAGE):
        for node in module.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                found[node.name] = node.name
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if (isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                            and not (item.name.startswith("__") and item.name.endswith("__"))):
                        found[f"{node.name}.{item.name}"] = item.name
    return found


def references() -> tuple[set[str], set[str]]:
    """(names used as a name or an attribute, whole string constants)."""
    names, strings = set(), set()
    for tree in TREES:
        for _, module in parsed(tree):
            for node in ast.walk(module):
                if isinstance(node, ast.Name):
                    names.add(node.id)
                elif isinstance(node, ast.Attribute):
                    names.add(node.attr)
                elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                    strings.add(node.value)
    return names, strings


def test_every_definition_has_a_caller():
    defs, refs = definitions(), set().union(*references())
    unreferenced = sorted(q for q, name in defs.items()
                          if name not in refs and q not in TEST_ONLY)
    assert not unreferenced, f"nothing in src/chargenet or perfbench uses {unreferenced}"


def test_test_only_list_is_exact():
    defs, refs = definitions(), set().union(*references())
    assert not sorted(TEST_ONLY - set(defs)), "listed but no longer defined"
    called = sorted(q for q in TEST_ONLY if defs[q] in refs)
    assert not called, f"listed as test-only but called: {called}; take them off the list"


def test_trace_only_list_is_exact():
    defs = definitions()
    names, strings = references()
    named_by_string_only = {q for q, name in defs.items()
                            if name in strings and name not in names}
    assert named_by_string_only == TRACE_ONLY, (
        f"named only by the tracer's strings: {sorted(named_by_string_only)}; "
        f"TRACE_ONLY lists {sorted(TRACE_ONLY)}")


def is_data(node: ast.AST) -> bool:
    """``x.data``, or a subscript of it."""
    while isinstance(node, ast.Subscript):
        node = node.value
    return isinstance(node, ast.Attribute) and node.attr == "data"


def unpacked(targets: list[ast.expr]) -> list[ast.expr]:
    out = []
    for t in targets:
        out += unpacked(t.elts) if isinstance(t, (ast.Tuple, ast.List)) else [t]
    return out


def data_writes(module: ast.Module) -> list[tuple[str, int]]:
    """(enclosing definition, line) of each in-place write into a ``.data``
    array: an augmented assignment to ``x.data`` or ``x.data[...]``, or an
    assignment to ``x.data[...]``."""
    found = []

    def visit(node: ast.AST, owner: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.AugAssign) and is_data(child.target):
                found.append((owner, child.lineno))
            elif isinstance(child, (ast.Assign, ast.AnnAssign)) and any(
                    isinstance(t, ast.Subscript) and is_data(t) for t in unpacked(
                        child.targets if isinstance(child, ast.Assign) else [child.target])):
                found.append((owner, child.lineno))
            inner = owner
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = f"{owner}.{child.name}" if owner else child.name
            visit(child, inner)

    visit(module, "")
    return found


def test_only_sgd_step_writes_data_in_place():
    writes = [f"{path.name}:{line} in {owner or 'module'}"
              for path, module in parsed(PACKAGE) for owner, line in data_writes(module)
              if (path.name, owner) != ("ndtensor.py", "sgd_step")]
    assert not writes, f"in-place writes into .data outside nd.sgd_step: {writes}"
