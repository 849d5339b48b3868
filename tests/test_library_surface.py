"""The library is what the CLI and the benchmark run.

Every top-level function, class and constant of a `src/coxtile` module, and
every method and property of its classes but the dunder methods, must be
read somewhere other than its own definition: in its own module, in another
module of the package, or by the benchmark under `perfbench/`.  A method
counts as read where its name is read as an attribute.  A bare name the
benchmark reads counts only when the benchmark does not define that name
itself: its own `identity` reads nothing of the package.
Every module but `__init__` and `cli` must be imported by another module of
the package or by the benchmark.  What only the tests read lives in
`tests/`.  The scan parses the sources and imports none of them.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "coxtile"
BENCHMARK = ROOT / "perfbench"
EXEMPT = {("cli", "main")}  # the console script's entry point


def defined_names(tree):
    """(name, node) for each top-level function, class and assigned name, and
    for each method and property of a top-level class, save the dunder
    methods the language calls itself."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name):
                        yield name.id, node
        if isinstance(node, ast.ClassDef):
            for method in node.body:
                if isinstance(method, (ast.FunctionDef, ast.AsyncFunctionDef)) and not (
                    method.name.startswith("__") and method.name.endswith("__")
                ):
                    yield f"{node.name}.{method.name}", method


def own_names(tree):
    """The names a tree defines: functions, classes, assigned names and parameters."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.arg):
            names.add(node.arg)
    return names


def read_names(tree, skip=None, own=frozenset()):
    """Every name the tree reads: identifiers not in `own`, attributes,
    imported names, and string constants that are one identifier (the
    benchmark's tracer names the functions it wraps that way), outside the
    node `skip`."""
    names = set()
    stack = [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        stack.extend(ast.iter_child_nodes(node))
        if isinstance(node, ast.Name):
            if node.id not in own:
                names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name.rpartition(".")[2])
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) and node.value.isidentifier():
            names.add(node.value)
    return names


def imported_modules(tree):
    """The short names of the coxtile modules a tree imports."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level == 0 and not module.startswith("coxtile"):
                continue
            name = module.removeprefix("coxtile").lstrip(".")
            found.update([name] if name else [alias.name for alias in node.names])
        elif isinstance(node, ast.Import):
            found.update(a.name.split(".")[1] for a in node.names if a.name.startswith("coxtile."))
    return found


def parse(paths):
    return {path.stem: ast.parse(path.read_text(), str(path)) for path in paths}


MODULES = parse(sorted(PACKAGE.glob("*.py")))
BENCH = parse(sorted(BENCHMARK.glob("*.py")))


def unread_definitions():
    bench_own = set().union(*(own_names(t) for t in BENCH.values()))
    bench_reads = set().union(*(read_names(t, own=bench_own) for t in BENCH.values()))
    unread = []
    for module, tree in MODULES.items():
        if module == "__init__":
            continue
        others = set().union(*(read_names(t) for m, t in MODULES.items() if m not in (module, "__init__")))
        for name, node in defined_names(tree):
            if (module, name) in EXEMPT:
                continue
            if name.rpartition(".")[2] not in bench_reads | others | read_names(tree, skip=node):
                unread.append(f"{module}.{name}")
    return unread


def unimported_modules():
    imports = {m: imported_modules(t) for m, t in {**MODULES, **BENCH}.items()}
    return sorted(
        m for m in MODULES
        if m not in ("__init__", "cli")
        and not any(m in found for who, found in imports.items() if who != m and who != "__init__")
    )


def test_every_definition_is_read_by_the_library_or_the_benchmark():
    assert unread_definitions() == []


def test_every_module_is_imported_by_the_library_or_the_benchmark():
    assert unimported_modules() == []


def test_the_scan_sees_a_planted_orphan():
    # a function and a method nobody reads, added to a parsed copy of a
    # module, are reported; a dunder method, which the language calls, is not
    tree = MODULES["walls"]
    wallset = next(node for node in tree.body if isinstance(node, ast.ClassDef) and node.name == "WallSet")
    orphan = ast.parse("def _orphan_for_the_scan():\n    return 0\n").body[0]
    methods = ast.parse(
        "class C:\n"
        "    def orphan_method_for_the_scan(self):\n        return 0\n"
        "    def __orphan_dunder_for_the_scan__(self):\n        return 0\n"
    ).body[0].body
    tree.body.append(orphan)
    wallset.body.extend(methods)
    try:
        unread = unread_definitions()
        assert unread == ["walls.WallSet.orphan_method_for_the_scan", "walls._orphan_for_the_scan"]
    finally:
        tree.body.remove(orphan)
        del wallset.body[-len(methods):]
