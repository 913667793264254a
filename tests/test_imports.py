"""Every name a wsmap module or a test file imports is used in that file.

No linter ships with the project, so this stdlib-only check stands in for
one. `__init__.py` is skipped: its imports are the package's re-exports,
and `__all__` must list exactly those. The simulator is the bottom layer:
`runtime.py` imports no wsmap module, resumes task generators at one call
site and moves its clock in `run` alone. The batch tasks derive their
grains from their input, so none of them takes a defaulted parameter.
Every function, class and method in `src/wsmap` is named somewhere in src
besides its own definition, or exported. `segments.py` alone pairs a key
tree with its recency tree, so no other module reads a leaf's `twin`.
"""

import ast
from collections import Counter
from pathlib import Path

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "wsmap"


def imported_names(tree):
    """{name: line} of each name an ast module imports; `from __future__`
    imports are compiler directives and skipped."""
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    return imported


def unused_imports(source):
    """(line, name) of each imported name that no expression in source
    reads."""
    tree = ast.parse(source)
    imported = imported_names(tree)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items()
                  if name not in used)


def test_checker_finds_an_unused_import():
    source = ("from __future__ import annotations\n"
              "import os.path\nimport sys\n"
              "from math import inf, log as ln\n"
              "sys.exit(ln(2))\n")
    assert unused_imports(source) == [(2, "os"), (4, "inf")]


def test_no_unused_imports_in_src():
    found = [f"{path.name}:{line} {name}"
             for path in sorted(SRC.glob("*.py")) if path.name != "__init__.py"
             for line, name in unused_imports(path.read_text())]
    assert not found, f"unused imports: {found}"


def test_no_unused_imports_in_tests():
    found = [f"{path.name}:{line} {name}"
             for path in sorted(TESTS.glob("*.py"))
             for line, name in unused_imports(path.read_text())]
    assert not found, f"unused imports: {found}"


def test_init_exports_exactly_its_imports():
    tree = ast.parse((SRC / "__init__.py").read_text())
    exported = next(ast.literal_eval(node.value) for node in tree.body
                    if isinstance(node, ast.Assign)
                    and [t.id for t in node.targets] == ["__all__"])
    assert len(exported) == len(set(exported)), "duplicate names in __all__"
    assert set(exported) == set(imported_names(tree))


def wsmap_imports(source):
    """Lines of source that import a wsmap module, relatively or by name."""
    return sorted(
        node.lineno for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ImportFrom)
        and (node.level or node.module.split(".")[0] == "wsmap")
        or isinstance(node, ast.Import)
        and any(a.name.split(".")[0] == "wsmap" for a in node.names))


def test_runtime_imports_no_wsmap_module():
    assert wsmap_imports("from . import core\nimport math, wsmap.tree23\n"
                         "from wsmap.core import Key\nfrom math import inf\n"
                         "from __future__ import annotations\n") == [1, 2, 3]
    assert wsmap_imports((SRC / "runtime.py").read_text()) == []


def send_calls(source):
    """Lines of source that call a `.send` method, as resuming a generator
    does."""
    return sorted(
        node.lineno for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
        and node.func.attr == "send")


def clock_writers(source):
    """Names of the functions of source that assign `self.now`."""
    return sorted({
        func.name for func in ast.walk(ast.parse(source))
        if isinstance(func, ast.FunctionDef)
        for node in ast.walk(func)
        if isinstance(node, (ast.Assign, ast.AugAssign))
        for target in (node.targets if isinstance(node, ast.Assign)
                       else [node.target])
        if isinstance(target, ast.Attribute) and target.attr == "now"
        and isinstance(target.value, ast.Name) and target.value.id == "self"})


def test_runtime_runs_code_nodes_one_way():
    # one executor runs every code node and the step loop alone moves the
    # clock: a second path would resume task generators somewhere else
    assert send_calls("gen.send(None)\nsend = 1\nx = task.gen.send\n"
                      "f(a.send(b.send(2)))\n") == [1, 4, 4]
    assert clock_writers("def a(self):\n    self.now = 0\n"
                         "def b(self, rt):\n    rt.now += 1\n    now = 2\n"
                         "def c(self):\n    self.now += 1\n"
                         "    self.now = x = 3\n") == ["a", "c"]
    source = (SRC / "runtime.py").read_text()
    assert len(send_calls(source)) == 1
    assert clock_writers(source) == ["__init__", "run"]


def defaulted_parameters(source, names):
    """(function, parameter) of each parameter with a default value in the
    functions of source named in names."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.FunctionDef) and node.name in names:
            args = node.args
            positional = args.posonlyargs + args.args
            first = len(positional) - len(args.defaults)
            found += [(node.name, a.arg) for a in positional[first:]]
            found += [(node.name, a.arg) for a, d in
                      zip(args.kwonlyargs, args.kw_defaults) if d is not None]
    return found


def test_checker_finds_a_defaulted_parameter():
    source = ("def f(a, b=1, *, c, d=2):\n    pass\n"
              "def g(a=0):\n    pass\n")
    assert defaulted_parameters(source, {"f"}) == [("f", "b"), ("f", "d")]


def test_batch_tasks_take_no_tuning_parameter():
    # a grain turned into a knob would be a setting someone has to tune
    tasks = {"tree23.py": {"batch_search_task", "batch_update_task",
                           "batch_delete_pos_task"},
             "sortlib.py": {"pesort_task"}}
    for module, names in tasks.items():
        source = (SRC / module).read_text()
        defined = {node.name for node in ast.walk(ast.parse(source))
                   if isinstance(node, ast.FunctionDef)}
        assert names <= defined, (module, names - defined)
        assert defaulted_parameters(source, names) == []


def twin_uses(source):
    """Lines of source that use a `.twin` attribute, outside a class named
    Leaf (the slot's own initialisation)."""
    tree = ast.parse(source)
    skip = {id(n) for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
            and cls.name == "Leaf" for n in ast.walk(cls)}
    return sorted(node.lineno for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute) and node.attr == "twin"
                  and id(node) not in skip)


def test_checker_finds_a_twin_use():
    source = ("class Leaf:\n    def __init__(self):\n"
              "        self.twin = None\n"
              "x = [lf.twin for lf in y]\ntwin = 1\n"
              "def f(lf):\n    lf.twin.twin = lf\n")
    assert twin_uses(source) == [4, 7, 7]


def test_only_segments_pairs_the_trees():
    # the pairing rule exists once: a map that reads a twin or a tree
    # module that follows one would be a second place to keep in step
    found = [f"{path.name}:{line}" for path in sorted(SRC.glob("*.py"))
             if path.name != "segments.py"
             for line in twin_uses(path.read_text())]
    assert found == []
    assert twin_uses((SRC / "segments.py").read_text()), \
        "segments.py no longer pairs the trees"


def _read_names(node):
    """How often each identifier is read as a name or an attribute in an
    ast subtree."""
    return Counter(n.id if isinstance(n, ast.Name) else n.attr
                   for n in ast.walk(node)
                   if isinstance(n, (ast.Name, ast.Attribute)))


def unnamed_definitions(sources):
    """(file, name) of each module-level function or class, and each method,
    of sources ({file: source}) whose name nothing reads outside its own
    definition; dunder methods are called by the language and skipped."""
    trees = {name: ast.parse(source) for name, source in sources.items()}
    read = sum((_read_names(tree) for tree in trees.values()), Counter())
    found = []
    for name, tree in trees.items():
        defs = []
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defs.append(node)
            if isinstance(node, ast.ClassDef):
                defs += [sub for sub in node.body
                         if isinstance(sub, ast.FunctionDef)]
        found += [(name, node.name) for node in defs
                  if not (node.name.startswith("__")
                          and node.name.endswith("__"))
                  and read[node.name] == _read_names(node)[node.name]]
    return sorted(found)


def test_checker_finds_an_unnamed_definition():
    sources = {"a.py": ("def used():\n    return 1\n"
                        "def rec(n):\n    return rec(n - 1)\n"
                        "class C:\n    def __len__(self):\n        return 0\n"
                        "    def m(self):\n        return self.n\n"
                        "    def n(self):\n        return used()\n"),
               "b.py": "from a import C\nC().m()\n"}
    assert unnamed_definitions(sources) == [("a.py", "rec")]


# a definition kept with no reader, and why
UNNAMED_ALLOWED = {
    # ROADMAP item 12 decides whether the demo is wired in or deleted
    ("calibrate.py", "span_separation_demo"),
}


def test_every_definition_in_src_is_named_elsewhere():
    # shared machinery exists once: a function, class or method that no
    # src code names is dead there, unless the package exports it
    tree = ast.parse((SRC / "__init__.py").read_text())
    exported = next(ast.literal_eval(node.value) for node in tree.body
                    if isinstance(node, ast.Assign)
                    and [t.id for t in node.targets] == ["__all__"])
    found = unnamed_definitions({path.name: path.read_text()
                                 for path in sorted(SRC.glob("*.py"))})
    assert [(f, n) for f, n in found if n not in exported
            and (f, n) not in UNNAMED_ALLOWED] == []
    assert UNNAMED_ALLOWED <= set(found), "a stale allowlist entry"
