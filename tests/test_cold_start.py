"""A cold start imports only the layers its command runs.

`hopfva/__init__.py` re-exports its public names lazily, and `hopfva.cli`
binds `vertexalg`, `action` and `schurweyl` as lazy modules that execute on
their first attribute read.  Each command below runs in a fresh interpreter
as `python -m hopfva.cli` does, and the set of layers that executed is read
from `sys.modules` afterwards; no timing is involved.  A lazily bound layer
sits in `sys.modules` from the start, so a layer counts as executed only
once its module object has become a plain `types.ModuleType`.
"""

import importlib
import json
import subprocess
import sys
from importlib import resources

import pytest

import hopfva
from hopfva import cli

SWEEDLER, XY, Z2 = (str(resources.files("hopfva") / "fixtures" / name)
                    for name in ("sweedler.json", "xy_diagonal.json", "z2_on_xddx.json"))

# the names the package re-exports, per module
EXPORTS = {
    "scalars": ["Cyclotomic", "Rational", "cyclotomic", "cyclotomic_polynomial", "euler_phi",
                "field_arithmetic", "zeta"],
    "linalg": ["Matrix", "Subspace", "solve", "split_commutative_algebra"],
    "hopf": ["FinHopfAlgebra", "dual_hopf", "group_algebra", "group_likes",
             "is_bialgebra_ideal", "is_cocommutative", "is_hopf_ideal", "quotient_hopf",
             "recognize_group_algebra", "sweedler", "verify_hopf_axioms"],
    "vertexalg": ["CommDiffVA", "Poly", "flip_skew_check", "pi2_kernel",
                  "pin_injectivity_check", "vandermonde_monomial_decision",
                  "verify_comm_va_axioms", "z2_kernel"],
    "action": ["HopfAction", "action_annihilator", "annihilator", "check_D_commute",
               "check_thm_group_algebra", "check_thm_kernel_bialgebra_ideal",
               "fixed_subspace", "inner_faithful_quotient", "is_inner_faithful",
               "maximal_hopf_ideal_in", "tensor_power_faithfulness", "trivial_action",
               "verify_module_algebra", "verify_module_vertex_algebra"],
    "schurweyl": ["CharacterTable", "FinGroupRep", "IrrepCharacter", "check_commutant",
                  "cyclic_reachability", "decompose", "distinguish_isotypes",
                  "isotypic_projector", "multiplicity_space", "verify_character_table"],
}
NAMES = [(module, name) for module, names in EXPORTS.items() for name in names]
WATCHED = ["hopfva.scalars", "hopfva.linalg", "hopfva.hopf", "hopfva.vertexalg",
           "hopfva.action", "hopfva.schurweyl", "dataclasses"]

# run argv (or only `import hopfva` when it is empty) as `python -m hopfva.cli`
# does, then print the exit code and the watched modules that executed
SCRIPT = """
import json, runpy, sys, types
argv, watched = json.loads(sys.argv[1]), json.loads(sys.argv[2])
code = None
if argv:
    sys.argv = ["hopfva.cli"] + argv
    try:
        runpy.run_module("hopfva.cli", run_name="__main__", alter_sys=True)
    except SystemExit as exc:
        code = exc.code
else:
    import hopfva
print(json.dumps({"code": code, "executed": [name for name in watched
                  if type(sys.modules.get(name)) is types.ModuleType]}))
"""


def cold_start(argv, optimize=False):
    """(stdout lines, exit code, executed watched modules) of a fresh run."""
    proc = subprocess.run(
        [sys.executable, *(["-O"] if optimize else []), "-c", SCRIPT,
         json.dumps(argv), json.dumps(WATCHED)],
        capture_output=True, text=True, timeout=120)
    lines = proc.stdout.splitlines()
    report = json.loads(lines[-1])
    return lines[:-1], report["code"], set(report["executed"])


HOPF_ONLY = {"hopfva.scalars", "hopfva.linalg", "hopfva.hopf"}
QUERIES = [
    (["verify-hopf", "--workspace", Z2, "--object", "qz2"], HOPF_ONLY),
    (["verify-hopf", "--workspace", SWEEDLER, "--object", "sweedler"], HOPF_ONLY),
    (["group-likes", "--workspace", Z2, "--object", "qz2"], HOPF_ONLY),
    (["recognize-group-algebra", "--workspace", Z2, "--object", "qz2"], HOPF_ONLY),
    (["pi2-kernel", "--workspace", XY, "--object", "xy_diag"],
     HOPF_ONLY | {"hopfva.vertexalg", "dataclasses"}),
    (["decompose", "--workspace", Z2, "--object", "z2_on_xddx", "--characters", "z2chars"],
     set(WATCHED)),
]


@pytest.mark.parametrize("argv, layers", QUERIES, ids=[q[0][0] for q in QUERIES])
@pytest.mark.parametrize("optimize", [False, True], ids=["plain", "O"])
def test_a_command_executes_only_its_layers(capsys, argv, layers, optimize):
    out, code, executed = cold_start(argv, optimize)
    assert executed == layers
    # the fresh run's machine block, summary and exit code are the in-process ones
    in_process = cli.main(argv)
    assert (out, code) == (capsys.readouterr().out.splitlines(), in_process)


def test_the_package_alone_executes_no_layer():
    assert cold_start([]) == ([], None, set())


def test_help_lists_every_command():
    proc = subprocess.run([sys.executable, "-m", "hopfva.cli", "--help"],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0
    listed = proc.stdout.split("{", 1)[1].split("}", 1)[0].split(",")
    assert listed == list(cli.COMMANDS)
    assert len(listed) == 20


@pytest.mark.parametrize("module, name", NAMES, ids=[name for _, name in NAMES])
def test_a_reexport_is_its_module_attribute(module, name):
    value = getattr(importlib.import_module(f"hopfva.{module}"), name)
    namespace = {}
    exec(f"from hopfva import {name}", namespace)
    assert getattr(hopfva, name) is value
    assert namespace[name] is value
    assert name in dir(hopfva)


def test_star_import_binds_exactly_the_reexports():
    assert len(NAMES) == 54
    namespace = {}
    exec("from hopfva import *", namespace)
    assert sorted(set(namespace) - {"__builtins__"}) == sorted(name for _, name in NAMES)
    assert sorted(hopfva.__all__) == sorted(name for _, name in NAMES)


def test_an_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        hopfva.no_such_name
    with pytest.raises(ImportError):
        exec("from hopfva import no_such_name", {})


def test_submodule_imports_still_work():
    from hopfva import action, cli as cli_module, errors, hopf, linalg, scalars, \
        schurweyl, vertexalg

    modules = [action, cli_module, errors, hopf, linalg, scalars, schurweyl, vertexalg]
    assert [m.__name__ for m in modules] == [
        "hopfva.action", "hopfva.cli", "hopfva.errors", "hopfva.hopf", "hopfva.linalg",
        "hopfva.scalars", "hopfva.schurweyl", "hopfva.vertexalg"]
    # a lazily bound layer executes on its first read and is the package's module
    assert cli.va_mod.Poly is vertexalg.Poly
    assert hopfva.vertexalg is vertexalg is sys.modules["hopfva.vertexalg"]
