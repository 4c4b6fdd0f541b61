"""No dead names and no `assert` statements in `src/hopfva`.

A module-level import, assignment or private (underscore) def that nothing
in the package reads, and a function-local name that is stored but never
read, are reported.  `_` is exempt, and so is every name `hopfva/__init__.py`
re-exports from the module that binds it (such as `scalars.Rational`), by an
import or through its lazy `_EXPORTS` table.
Every exception class of `errors.py` must be raised or caught somewhere in
the package, so a deleted code path cannot leave its error behind.
Every function the benchmark's tracer wraps by name must still exist (read
from `bench/spans.py` without installing it, and again through its tracer),
and every null space must enter the one traced kernel routine.  Only
`linalg` and the package namespace may name the dense `Matrix`, and only
`linalg` may read a private attribute of `Subspace`.
"""

import ast
import importlib.util
from pathlib import Path

import hopfva

PACKAGE = Path(hopfva.__file__).parent
_SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ClassDef)


def _parse(path):
    return ast.parse(path.read_text(), filename=str(path))


def _own_nodes(scope):
    """The nodes of one function body, without those of nested scopes."""
    stack = list(ast.iter_child_nodes(scope))
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, _SCOPES):
            stack.extend(ast.iter_child_nodes(node))


def _bound_at_module_level(tree):
    for node in tree.body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if getattr(node, "module", None) != "__future__":
                for alias in node.names:
                    yield (alias.asname or alias.name).split(".")[0]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name):
                        yield name.id
        elif isinstance(node, _SCOPES) and node.name.startswith("_"):
            yield node.name


def _lazy_exports(tree):
    """module -> the names a package `__init__` re-exports from it through
    its `_EXPORTS` table, a dict literal of module names to tuples of names."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "_EXPORTS" for t in node.targets):
            return {key.value: {name.value for name in names.elts}
                    for key, names in zip(node.value.keys, node.value.values)}
    return {}


def _read_from(module, trees):
    """Names of `module` that another module imports or reads as an
    attribute, or that the package `__init__` re-exports lazily."""
    read = set()
    for other, tree in trees.items():
        if other == module:
            continue
        if other == "__init__":
            read.update(_lazy_exports(tree).get(module, ()))
        aliases = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[-1] == module:
                read.update(alias.name for alias in node.names)
            if isinstance(node, ast.ImportFrom):
                aliases.update(alias.asname or alias.name
                               for alias in node.names if alias.name == module)
        read.update(node.attr for node in ast.walk(tree)
                    if isinstance(node, ast.Attribute)
                    and isinstance(node.value, ast.Name) and node.value.id in aliases)
    return read


def dead_names(package=PACKAGE):
    trees = {path.stem: _parse(path) for path in sorted(package.glob("*.py"))}
    found = []
    for module, tree in trees.items():
        if module == "__init__":
            continue
        read = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        read |= _read_from(module, trees) | {"_", "__all__"}
        found += [f"{module}.{name}" for name in _bound_at_module_level(tree)
                  if name not in read]
        for fn in ast.walk(tree):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            stored, declared = {}, set()
            for node in _own_nodes(fn):
                if isinstance(node, (ast.Global, ast.Nonlocal)):
                    declared.update(node.names)
                elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
                    stored.setdefault(node.id, node.lineno)
            loaded = {node.id for node in ast.walk(fn)
                      if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store)}
            found += [f"{module}.{fn.name}: {name} (line {line})"
                      for name, line in stored.items()
                      if name not in loaded | declared | {"_"}]
    return found


def test_no_dead_names():
    assert dead_names() == []


def test_no_assert_statements():
    # `python -O` strips asserts, so a check written as one would stop guarding
    # its verdict; the package raises instead
    found = [f"{path.name}:{node.lineno}" for path in sorted(PACKAGE.glob("*.py"))
             for node in ast.walk(_parse(path)) if isinstance(node, ast.Assert)]
    assert found == []


# the modules that may name the dense Matrix: linalg defines it (for `solve`,
# `Subspace` and the Matrix methods), and the package namespace re-exports it
MATRIX_MODULES = {"linalg", "__init__"}


def matrix_importers(package=PACKAGE):
    """`module:line` of each import of `Matrix`, or read of an attribute
    `.Matrix`, in a module of `package` outside MATRIX_MODULES."""
    found = []
    for path in sorted(package.glob("*.py")):
        if path.stem in MATRIX_MODULES:
            continue
        for node in ast.walk(_parse(path)):
            if isinstance(node, ast.ImportFrom) and any(a.name == "Matrix" for a in node.names) \
                    or isinstance(node, ast.Attribute) and node.attr == "Matrix":
                found.append(f"{path.stem}:{node.lineno}")
    return found


def test_structure_maps_import_no_matrix():
    # Hopf structure maps, actions and irrep matrices are sparse columns; a
    # dense Matrix coming back into one of their modules must be a decision
    assert matrix_importers() == []


def test_matrix_scan_finds_an_importer(tmp_path):
    (tmp_path / "linalg.py").write_text("class Matrix:\n    pass\n")
    (tmp_path / "hopf.py").write_text("from .linalg import Subspace, Matrix\n")
    (tmp_path / "action.py").write_text("from . import linalg\n\n\n"
                                        "def f():\n    return linalg.Matrix\n")
    assert matrix_importers(tmp_path) == ["action:5", "hopf:1"]


def subspace_private_readers(package=PACKAGE):
    """`module:line` of each read of a private attribute of linalg's
    `Subspace`, a `_` name of its `__slots__` or of a method it defines, in
    a module of `package` other than linalg."""
    private = set()
    for node in ast.walk(_parse(package / "linalg.py")):
        if isinstance(node, ast.ClassDef) and node.name == "Subspace":
            for item in node.body:
                if isinstance(item, ast.FunctionDef):
                    private.add(item.name)
                elif isinstance(item, ast.Assign) and any(
                        isinstance(t, ast.Name) and t.id == "__slots__" for t in item.targets):
                    private.update(e.value for e in item.value.elts)
    private = {name for name in private if name.startswith("_") and not name.endswith("__")}
    return [f"{path.stem}:{node.lineno}" for path in sorted(package.glob("*.py"))
            if path.stem != "linalg" for node in ast.walk(_parse(path))
            if isinstance(node, ast.Attribute) and node.attr in private]


def test_only_linalg_reads_subspace_internals():
    # a Subspace holds its sparse rows and builds its dense basis from them
    # on first read; a module reaching past `nonzero_rows` and `basis` into
    # that state would tie itself to how the two are kept
    assert subspace_private_readers() == []


def test_subspace_scan_finds_a_private_read(tmp_path):
    (tmp_path / "linalg.py").write_text(
        "class Subspace:\n"
        "    __slots__ = ('ambient', '_rows')\n"
        "    def __init__(self):\n"
        "        self._rows = []\n"
        "    def _reduced(self, v):\n"
        "        return self._rows\n")
    (tmp_path / "vertexalg.py").write_text(
        "def f(space):\n"
        "    return space.ambient, space._rows\n"
        "def g(space, v):\n"
        "    return space._reduced(v), space.__init__\n")
    assert subspace_private_readers(tmp_path) == ["vertexalg:2", "vertexalg:4"]


def unused_errors(package=PACKAGE):
    """Exception classes of `errors.py` that no `raise` or `except` names."""
    classes = {}  # class name -> its base names, in errors.py
    for node in _parse(package / "errors.py").body:
        if isinstance(node, ast.ClassDef):
            classes[node.name] = {b.id for b in node.bases if isinstance(b, ast.Name)}

    def is_exception(name):
        return any(b == "Exception" or is_exception(b) for b in classes.get(name, ()))

    used = set()
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(_parse(path)):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                used.update(n.id for n in ast.walk(exc) if isinstance(n, ast.Name))
            elif isinstance(node, ast.ExceptHandler) and node.type is not None:
                used.update(n.id for n in ast.walk(node.type) if isinstance(n, ast.Name))
    return sorted(name for name in classes if is_exception(name) and name not in used)


def test_every_error_class_is_raised_or_caught():
    assert unused_errors() == []


def test_error_scan_finds_an_unused_class(tmp_path):
    (tmp_path / "errors.py").write_text(
        "class Base(Exception):\n    pass\n"
        "class Raised(Base):\n    pass\n"
        "class Caught(Base):\n    pass\n"
        "class Orphan(Base):\n    pass\n"
        "class Report(dict):\n    pass\n")
    (tmp_path / "mod.py").write_text(
        "from .errors import Base, Caught, Raised\n"
        "def f():\n"
        "    try:\n"
        "        raise Raised('x')\n"
        "    except (Caught, KeyError):\n"
        "        raise\n"
        "    except Base as exc:\n"
        "        return exc\n")
    assert unused_errors(tmp_path) == ["Orphan"]


def test_scan_finds_each_kind_of_dead_name(tmp_path):
    (tmp_path / "__init__.py").write_text("from .mod import exported\n")
    (tmp_path / "mod.py").write_text(
        "import os\n"
        "import sys\n"
        "from math import pi, tau\n"
        "exported = 1\n"
        "UNUSED = 2\n"
        "USED = 3\n"
        "def _private():\n"
        "    pass\n"
        "def public(n):\n"
        "    width = n\n"
        "    total = 0\n"
        "    for _ in range(n):\n"
        "        total += 1\n"
        "    def inner():\n"
        "        return total\n"
        "    return inner, sys.argv, tau, USED\n")
    (tmp_path / "other.py").write_text("from . import mod\nfrom .mod import _private\n"
                                       "_private(mod.os)\n")
    assert dead_names(tmp_path) == ["mod.pi", "mod.UNUSED", "mod.public: width (line 10)"]


def test_scan_reads_the_lazy_export_table(tmp_path):
    # a name listed for its own module is exempt; one listed for another
    # module, or a table entry that names no binding, exempts nothing
    (tmp_path / "__init__.py").write_text(
        "_EXPORTS = {\n"
        "    'mod': ('exported', 'missing'),\n"
        "    'other': ('shared',),\n"
        "}\n"
        "def __getattr__(name):\n"
        "    return _EXPORTS[name]\n")
    (tmp_path / "mod.py").write_text("exported = 1\nshared = 2\nUNUSED = 3\n")
    (tmp_path / "other.py").write_text("shared = 4\n")
    assert dead_names(tmp_path) == ["mod.shared", "mod.UNUSED"]


def _bench_spans():
    """The benchmark's `bench/spans.py`, loaded from its file (read only)."""
    path = Path(__file__).parents[1] / "bench" / "spans.py"
    spec = importlib.util.spec_from_file_location("bench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


def test_every_benchmark_target_names_a_package_attribute():
    # each TARGETS entry is a function of its layer's module, or a method
    # defined on a class there ("Class.method"), which is where the tracer
    # looks it up; a refactor that renames or moves one must fail here
    missing = []
    for layer, names in _bench_spans().TARGETS.items():
        module = importlib.import_module(f"hopfva.{layer}")
        for name in names:
            owner, _, attr = name.rpartition(".")
            if owner:
                found = attr in vars(getattr(module, owner, object))
            else:
                found = callable(getattr(module, attr, None))
            if not found:
                missing.append(f"{layer}: {name}")
    assert missing == []


def test_every_traced_benchmark_target_resolves():
    # the benchmark's tracer patches hot functions by name; a rename must
    # fail here rather than break traced benchmark runs
    spans = _bench_spans()
    import hopfva.action as action
    import hopfva.hopf as hopf
    import hopfva.linalg as linalg
    import hopfva.schurweyl as schurweyl
    import hopfva.vertexalg as vertexalg

    before = (linalg._minimal_polynomial, linalg.Matrix.__dict__["__mul__"])
    tracer = spans.Tracer()
    tracer.install()
    try:
        wrapped = {(layer, name) for layer, names in spans.TARGETS.items() for name in names}
        assert set(tracer.stats) == wrapped
        assert linalg._minimal_polynomial is not before[0]
        # the ideal tests run through the names the tracer wraps
        h = hopf.sweedler()
        ideal = action.maximal_hopf_ideal_in(h, hopf.augmentation_ideal(h))
        hopf.quotient_hopf(h, ideal)
        assert hopf.is_bialgebra_ideal(h, ideal) == (True, None)
        for layer, name in [("action", "maximal_hopf_ideal_in"), ("hopf", "quotient_hopf"),
                            ("hopf", "is_bialgebra_ideal"), ("hopf", "sweedler")]:
            assert tracer.stats[layer, name][0] >= 1, name
        # every null space goes through the one sparse kernel routine, whose
        # span counts the columns of each kernel
        act = action.trivial_action(h, vertexalg.single_variable_backend(1, 1))
        for name, run in [("Matrix.kernel", linalg.Matrix.identity(2).kernel),
                          ("action_annihilator", lambda: action.action_annihilator(act)),
                          ("fixed_subspace", lambda: action.fixed_subspace(act))]:
            calls = tracer.stats["vertexalg", "_kernel_of_columns"][0]
            run()
            assert tracer.stats["vertexalg", "_kernel_of_columns"][0] > calls, name
        # the Schur-Weyl kernels pass sparse columns to it, not dense rows
        # through Matrix.kernel
        z2 = action.HopfAction.from_generator_images(
            hopf.group_algebra([[0, 1], [1, 0]]), vertexalg.single_variable_backend(1, 2),
            {"g1": {"x": vertexalg.Poly.monomial((1,), -1)}})
        rep = schurweyl.FinGroupRep.from_hopf_action(z2)
        one = ([[1]],) * 2
        table = schurweyl.CharacterTable([[0, 1], [1, 0]], [[0], [1]], [
            schurweyl.IrrepCharacter("triv", 1, (1, 1), one)])
        for name, run in [("fixed_points", rep.fixed_points),
                          ("multiplicity_space",
                           lambda: schurweyl.multiplicity_space(table, rep, "triv"))]:
            calls = tracer.stats["vertexalg", "_kernel_of_columns"][0]
            dense = tracer.stats["linalg", "Matrix.kernel"][0]
            run()
            assert tracer.stats["vertexalg", "_kernel_of_columns"][0] > calls, name
            assert tracer.stats["linalg", "Matrix.kernel"][0] == dense, name
    finally:
        tracer.uninstall()
    assert (linalg._minimal_polynomial, linalg.Matrix.__dict__["__mul__"]) == before
