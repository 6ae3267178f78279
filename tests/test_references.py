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
the model's caches rely on. Rebinding ``x.data`` to a new array is not a
write into the old one. It also checks that ``model_file`` is the one module
that calls a function of ``FILE_CALLS`` or a method of ``FILE_METHODS``, or
imports a module of ``FILE_MODULES``. Names are resolved through the module's
imports (``np.load`` is ``numpy.load``, and ``replace`` after ``from os import
replace`` is ``os.replace``); a function reached any other way, through an
assignment or ``getattr``, is not seen.
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


# The functions that open, read, write, sync, rename or remove a file, by the
# module they come from; the methods that do (``Path.open``,
# ``Path.write_text``, ``ndarray.tofile``, ...), on any object; and the modules
# whose import alone is file access.
FILE_CALLS = {
    "open", "io.open", "os.open", "os.fdopen", "os.replace", "os.rename", "os.remove",
    "os.unlink", "os.fsync", "numpy.load", "numpy.save", "numpy.savez",
    "numpy.savez_compressed", "numpy.fromfile", "numpy.loadtxt", "numpy.savetxt",
    "numpy.genfromtxt", "numpy.memmap",
}
FILE_METHODS = {"open", "read_bytes", "read_text", "write_bytes", "write_text", "unlink",
                "tofile"}
FILE_MODULES = {"zipfile", "shutil", "tempfile"}


def imported_names(module: ast.Module) -> dict[str, str]:
    """What each name an import binds stands for: ``np`` for ``numpy`` after
    ``import numpy as np``, ``r`` for ``os.replace`` after ``from os import
    replace as r``."""
    names = {}
    for node in ast.walk(module):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.asname:
                    names[alias.asname] = alias.name
                else:
                    head = alias.name.partition(".")[0]
                    names[head] = head
        elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
            for alias in node.names:
                names[alias.asname or alias.name] = f"{node.module}.{alias.name}"
    return names


def dotted(node: ast.AST, names: dict[str, str]) -> str | None:
    """``a.b.c`` of a name or an attribute chain, its first name resolved
    through ``names``; else None."""
    if isinstance(node, ast.Name):
        return names.get(node.id, node.id)
    if isinstance(node, ast.Attribute):
        head = dotted(node.value, names)
        return head and f"{head}.{node.attr}"
    return None


def file_access(module: ast.Module) -> list[tuple[str, int]]:
    """(what, line) of each call of a ``FILE_CALLS`` function or a
    ``FILE_METHODS`` method and each import of a ``FILE_MODULES`` module."""
    names = imported_names(module)
    found = []
    for node in ast.walk(module):
        if isinstance(node, ast.Call):
            name = dotted(node.func, names)
            if name in FILE_CALLS:
                found.append((name, node.lineno))
            elif isinstance(node.func, ast.Attribute) and node.func.attr in FILE_METHODS:
                found.append((name or f".{node.func.attr}", node.lineno))
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            modules = ([a.name for a in node.names] if isinstance(node, ast.Import)
                       else [node.module or ""])
            found += [(f"import {m}", node.lineno) for m in modules
                      if m.partition(".")[0] in FILE_MODULES]
    return found


def test_file_access_resolves_imports():
    module = ast.parse("import numpy\nimport io as i\nfrom os import replace as r\n"
                       "from pathlib import Path\nimport shutil.x\n"
                       "numpy.save(f, a)\ni.open(p)\nr(a, b)\nPath(p).write_text(t)\n"
                       "a.tofile(f)\nnumpy.asarray(a)\nlen(a)\n")
    assert sorted(file_access(module), key=lambda item: item[1]) == [
        ("import shutil.x", 5), ("numpy.save", 6), ("io.open", 7), ("os.replace", 8),
        (".write_text", 9), ("a.tofile", 10)]


def test_only_model_file_touches_files():
    accesses = {path.name: file_access(module) for path, module in parsed(PACKAGE)}
    seen = {what for what, _ in accesses.pop("model_file.py")}
    assert {"open", "numpy.load", "numpy.savez", "os.replace", "os.open",
            "import zipfile"} <= seen, sorted(seen)
    outside = [f"{name}:{line} {what}" for name, found in accesses.items()
               for what, line in found]
    assert not outside, f"file access outside model_file.py: {outside}"
