import json
import re
import subprocess
import sys
from importlib import resources
from pathlib import Path

import pytest

from conftest import tensors_entry
from hopfva import cli
from hopfva.errors import DuplicateName, ParseError, UnresolvedReference
from hopfva.hopf import sweedler, symmetric_group_table


def fixture(name):
    return str(resources.files("hopfva") / "fixtures" / name)


SWEEDLER = fixture("sweedler.json")
Z2 = fixture("z2_on_xddx.json")
XY = fixture("xy_diagonal.json")


def run_cli(capsys, argv):
    code = cli.main(argv)
    out = capsys.readouterr().out
    machine = out.splitlines()[0]
    return code, json.loads(machine), machine


def test_cocommutative_sweedler(capsys):
    code, doc, _ = run_cli(capsys, [
        "cocommutative", "--workspace", SWEEDLER, "--object", "sweedler"])
    assert code == 3  # verdict-fail: not cocommutative
    assert doc["status"] == "fail"
    assert doc["result"] == {"cocommutative": False, "witness": "x"}


def test_verify_hopf_passes(capsys):
    code, doc, _ = run_cli(capsys, [
        "verify-hopf", "--workspace", Z2, "--object", "qz2"])
    assert code == 0
    assert all(v["ok"] for v in doc["result"]["axioms"].values())


def test_fixed_points_cap_override(capsys):
    code, doc, _ = run_cli(capsys, [
        "fixed-points", "--workspace", Z2, "--object", "z2_on_xddx",
        "--cap-d", "4", "--json-only"])
    assert code == 0
    assert doc["result"]["dim"] == 3
    assert doc["result"]["basis"] == ["1/1", "1/1*x^2", "1/1*x^4"]


def test_pi2_kernel_xy_diagonal_lists_witness(capsys):
    code, doc, _ = run_cli(capsys, [
        "pi2-kernel", "--workspace", XY, "--object", "xy_diag",
        "--cap-d", "1", "--order-k", "10"])
    assert code == 0
    assert doc["result"]["dim"] >= 1
    assert doc["result"]["stabilized"]
    entries = doc["result"]["basis"][0]
    assert ["1/1*x", "1/1", "1/1"] in entries  # x (x) 1 with coefficient 1


def test_pi2_kernel_euler_zero(capsys):
    code, doc, _ = run_cli(capsys, [
        "pi2-kernel", "--workspace", Z2, "--object", "xddx", "--cap-d", "4"])
    assert code == 0
    assert doc["result"]["dim"] == 0
    assert doc["result"]["stabilized"]


def test_verify_action_sweedler_fails(capsys):
    code, doc, _ = run_cli(capsys, [
        "verify-action", "--workspace", SWEEDLER, "--object", "sweedler_on_z"])
    assert code == 3
    checks = doc["result"]["checks"]
    assert checks["module-algebra-rule"]["ok"]
    assert not checks["derivation-commutation"]["ok"]


def test_thm_5_1_refusal_exit_code(capsys):
    code, doc, _ = run_cli(capsys, [
        "thm-5-1", "--workspace", SWEEDLER, "--object", "sweedler_on_z"])
    assert code == 2
    assert doc["status"] == "refused"
    assert "module-vertex-algebra" in doc["result"]["failed"]


def test_thm_5_1_passes_for_sign_action(capsys):
    code, doc, _ = run_cli(capsys, [
        "thm-5-1", "--workspace", Z2, "--object", "z2_on_xddx", "--cap-d", "4"])
    assert code == 0
    assert doc["result"]["verdict"] == "PASS"


def test_thm_5_4_passes(capsys):
    code, doc, _ = run_cli(capsys, [
        "thm-5-4", "--workspace", Z2, "--object", "z2_on_xddx", "--cap-d", "4"])
    assert code == 0
    assert doc["result"]["verdict"] == "PASS"


def test_schur_weyl_commands(capsys):
    code, doc, _ = run_cli(capsys, [
        "decompose", "--workspace", Z2, "--object", "z2_on_xddx",
        "--characters", "z2chars"])
    assert code == 0
    assert doc["result"]["multiplicities"]["triv"] == [1, 0, 1, 0, 1, 0, 1]
    assert doc["result"]["multiplicities"]["sign"] == [0, 1, 0, 1, 0, 1, 0]

    code, doc, _ = run_cli(capsys, [
        "multiplicity", "--workspace", Z2, "--object", "z2_on_xddx",
        "--characters", "z2chars", "--irrep", "sign"])
    assert code == 0
    assert doc["result"]["dims_per_degree"] == [0, 1, 0, 1, 0, 1, 0]

    code, doc, _ = run_cli(capsys, [
        "reach", "--workspace", Z2, "--object", "z2_on_xddx",
        "--characters", "z2chars", "--irrep", "sign", "--seed", "x"])
    assert code == 0
    assert doc["result"]["fills_isotype"]

    code, doc, _ = run_cli(capsys, [
        "commutant", "--workspace", Z2, "--object", "z2_on_xddx"])
    assert code == 0

    code, doc, _ = run_cli(capsys, [
        "distinguish", "--workspace", Z2, "--object", "z2_on_xddx",
        "--characters", "z2chars", "--irrep", "triv", "--irrep2", "sign"])
    assert code == 0
    assert doc["result"]["verdict"] == "degreewise-dims"


def test_distinguish_builds_no_mode_operator(capsys, monkeypatch):
    # equal multiplicities answer "inconclusive" without a mode operator:
    # the invariant modes cannot separate isotypes the multiplicities do not
    from hopfva import schurweyl

    calls = []
    mode_matrix = schurweyl._mode_matrix
    monkeypatch.setattr(schurweyl, "_mode_matrix",
                        lambda *args: calls.append(1) or mode_matrix(*args))
    code, doc, _ = run_cli(capsys, [
        "distinguish", "--workspace", Z2, "--object", "z2_on_xddx",
        "--characters", "z2chars", "--irrep", "sign", "--irrep2", "sign"])
    assert (code, doc["result"]["verdict"]) == (3, "inconclusive")
    assert len(calls) == 0


@pytest.mark.parametrize("argv", [
    ["distinguish", "--irrep", "nope", "--irrep2", "sign"],
    ["distinguish", "--irrep", "triv", "--irrep2", "nope"],
    ["distinguish", "--irrep2", "sign"],
    ["distinguish", "--irrep", "triv"],
    ["reach", "--irrep", "nope", "--seed", "x"],
    ["reach", "--seed", "x"],
    ["multiplicity", "--irrep", "nope"],
    ["multiplicity"],
])
def test_unknown_or_missing_irreducibles_are_input_errors(capsys, argv):
    code, doc, _ = run_cli(capsys, argv + [
        "--workspace", Z2, "--object", "z2_on_xddx", "--characters", "z2chars"])
    name = "nope" if "nope" in argv else None
    assert code == 4
    assert doc["result"] == {"error": "UnresolvedReference",
                             "message": f"no irreducible named {name!r}"}


def test_group_likes_and_recognition(capsys):
    code, doc, _ = run_cli(capsys, [
        "group-likes", "--workspace", Z2, "--object", "qz2"])
    assert code == 0
    assert doc["result"]["count"] == 2

    code, doc, _ = run_cli(capsys, [
        "recognize-group-algebra", "--workspace", SWEEDLER,
        "--object", "sweedler"])
    assert code == 3
    assert not doc["result"]["group_algebra"]


def test_quotient_and_annihilator_and_tensor(capsys):
    code, doc, _ = run_cli(capsys, [
        "annihilator", "--workspace", SWEEDLER, "--object", "sweedler_on_z"])
    assert code == 0
    assert doc["result"]["dim"] == 1
    assert doc["result"]["stabilized"]

    code, doc, _ = run_cli(capsys, [
        "quotient", "--workspace", SWEEDLER, "--object", "sweedler_on_z"])
    assert code == 0
    assert doc["result"]["quotient_dim"] == 4  # inner faithful already
    assert doc["result"]["fixed_preserved"]

    code, doc, _ = run_cli(capsys, [
        "tensor-faithful", "--workspace", SWEEDLER, "--object", "sweedler_on_z",
        "--cap-d", "2", "--s-max", "2"])
    assert code == 0
    assert doc["result"]["table"] == [1, 0]
    assert doc["result"]["s0"] == 2


def test_inner_faithful_and_z2_kernel(capsys):
    code, doc, _ = run_cli(capsys, [
        "inner-faithful", "--workspace", SWEEDLER, "--object", "sweedler_on_z"])
    assert code == 0
    assert doc["result"]["inner_faithful"]

    code, doc, _ = run_cli(capsys, [
        "z2-kernel", "--workspace", XY, "--object", "xy_diag",
        "--cap-d", "1", "--order-k", "8", "--laurent-b", "1"])
    assert code == 0
    assert doc["result"]["dim"] >= 1

    code, doc, _ = run_cli(capsys, [
        "pin-check", "--workspace", Z2, "--object", "xddx",
        "--cap-d", "3", "--order-k", "8", "--arity-n", "3"])
    assert code == 0
    assert doc["result"]["injective"]


def test_determinism_byte_identical(capsys):
    argvs = [
        ["cocommutative", "--workspace", SWEEDLER, "--object", "sweedler"],
        ["pi2-kernel", "--workspace", XY, "--object", "xy_diag",
         "--cap-d", "1", "--order-k", "10"],
        ["fixed-points", "--workspace", Z2, "--object", "z2_on_xddx",
         "--cap-d", "4"],
        ["decompose", "--workspace", Z2, "--object", "z2_on_xddx",
         "--characters", "z2chars"],
    ]
    for argv in argvs:
        _, _, first = run_cli(capsys, argv)
        _, _, second = run_cli(capsys, argv)
        assert first == second


def test_unresolved_reference_is_input_error(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({
        "schema_version": 1,
        "actions": [{"name": "a", "hopf": "missing", "backend": "nowhere",
                     "generator_images": {}}],
    }))
    code, doc, _ = run_cli(capsys, [
        "fixed-points", "--workspace", str(bad), "--object", "a"])
    assert code == 4
    assert doc["status"] == "error"


def test_duplicate_name_rejected(tmp_path):
    f1 = tmp_path / "one.json"
    f1.write_text(json.dumps({
        "schema_version": 1,
        "backends": [
            {"name": "b", "variables": ["x"], "derivation": {"x": "1"},
             "degree_cap": 2},
            {"name": "b", "variables": ["x"], "derivation": {"x": "1"},
             "degree_cap": 3},
        ],
    }))
    with pytest.raises(DuplicateName):
        cli.load([str(f1)])


def test_parse_error_carries_position(tmp_path):
    f1 = tmp_path / "broken.json"
    f1.write_text("{ not json")
    with pytest.raises(ParseError) as exc:
        cli.load([str(f1)])
    assert "broken.json:1" in str(exc.value)


def test_missing_object_is_unresolved(capsys):
    code, doc, _ = run_cli(capsys, [
        "verify-hopf", "--workspace", SWEEDLER, "--object", "nope"])
    assert code == 4
    assert doc["result"]["error"] == "UnresolvedReference"


def test_subprocess_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "hopfva.cli", "cocommutative",
         "--workspace", SWEEDLER, "--object", "sweedler", "--json-only"],
        capture_output=True, text=True)
    assert proc.returncode == 3
    doc = json.loads(proc.stdout.strip())
    assert doc["result"]["witness"] == "x"

    proc2 = subprocess.run(
        [sys.executable, "-m", "hopfva.cli", "cocommutative",
         "--workspace", SWEEDLER, "--object", "sweedler", "--json-only"],
        capture_output=True, text=True)
    assert proc.stdout == proc2.stdout  # byte-identical machine blocks


def test_usage_error_exit_code():
    proc = subprocess.run(
        [sys.executable, "-m", "hopfva.cli", "no-such-command",
         "--workspace", SWEEDLER],
        capture_output=True, text=True)
    assert proc.returncode == 4


PARSER_QUERIES = [
    ["cocommutative", "--workspace", SWEEDLER, "--object", "sweedler"],
    ["verify-action", "--workspace", Z2, "--object", "z2_on_xddx", "--cap-d", "2"],
    ["pi2-kernel", "--workspace", XY, "--object", "xy_diag", "--json-only"],
    ["no-such-command", "--workspace", SWEEDLER],
    ["fixed-points", "--workspace", Z2, "--object", "z2_on_xddx", "--cap-d=-1"],
    ["cocommutative", "--workspace", SWEEDLER, "--object", "sweedler", "--cap-d", "x"],
    ["cocommutative", "--workspace", SWEEDLER, "--object", "sweedler"],
    ["--help"],
]


def _outcomes(capsys, queries):
    """(exit status, stdout, stderr) of each query run in-process."""
    out = []
    for argv in queries:
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        out.append((code, captured.out, captured.err))
    return out


def test_one_parser_serves_every_query_of_a_process(capsys, monkeypatch):
    # `main` builds its parser once; queries answered by it, usage errors
    # (exit 4) and --help between them read as with a fresh parser each time
    shared = _outcomes(capsys, PARSER_QUERIES * 2)
    assert cli._parser() is cli._parser()
    monkeypatch.setattr(cli, "_parser", cli.build_parser)
    fresh = _outcomes(capsys, PARSER_QUERIES * 2)
    assert shared == fresh
    assert [code for code, _, _ in shared[:len(PARSER_QUERIES)]] == [3, 0, 0, 4, 4, 4, 3, 0]
    assert shared[-1][1] == cli.build_parser().format_help()


def test_tensor_and_dual_builders(capsys, tmp_path):
    # Q[Z/2] entered by raw structure constants, plus its dual
    ws = tmp_path / "tensors.json"
    ws.write_text(json.dumps({
        "schema_version": 1,
        "hopf_algebras": [
            {"name": "raw_z2", "builder": "tensors", "dim": 2,
             "basis": ["e", "g"],
             "mul": [[0, 0, 0, "1"], [0, 1, 1, "1"], [1, 0, 1, "1"],
                     [1, 1, 0, "1"]],
             "comul": [[0, 0, 0, "1"], [1, 1, 1, "1"]],
             "counit": ["1", "1"],
             "unit": ["1", "0"],
             "antipode": [[0, 0, "1"], [1, 1, "1"]]},
            {"name": "raw_z2_dual", "builder": "dual", "of": "raw_z2"},
        ],
    }))
    code, doc, _ = run_cli(capsys, [
        "verify-hopf", "--workspace", str(ws), "--object", "raw_z2"])
    assert code == 0
    code, doc, _ = run_cli(capsys, [
        "recognize-group-algebra", "--workspace", str(ws), "--object", "raw_z2"])
    assert code == 0
    assert doc["result"]["table"] == [[0, 1], [1, 0]]
    code, doc, _ = run_cli(capsys, [
        "verify-hopf", "--workspace", str(ws), "--object", "raw_z2_dual"])
    assert code == 0


def test_action_from_explicit_matrices(capsys, tmp_path):
    # the sign action on Q[x]_{<=2} written out as matrices
    ws = tmp_path / "mats.json"
    ws.write_text(json.dumps({
        "schema_version": 1,
        "hopf_algebras": [{"name": "qz2", "builder": "group_algebra",
                           "table": [[0, 1], [1, 0]], "element_names": ["e", "g"]}],
        "backends": [{"name": "plain", "variables": ["x"],
                      "derivation": {"x": "x"}, "degree_cap": 2}],
        "actions": [{"name": "sign", "hopf": "qz2", "backend": "plain",
                     "matrices": {
                         "e": [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]],
                         "g": [["1", "0", "0"], ["0", "-1", "0"], ["0", "0", "1"]],
                     }}],
    }))
    code, doc, _ = run_cli(capsys, [
        "fixed-points", "--workspace", str(ws), "--object", "sign"])
    assert code == 0
    assert doc["result"]["dim"] == 2
    # explicit matrices cannot be re-capped
    code, doc, _ = run_cli(capsys, [
        "fixed-points", "--workspace", str(ws), "--object", "sign",
        "--cap-d", "1"])
    assert code == 4


def test_explicit_matrices_read_column_j_as_the_image_of_monomial_j(capsys, tmp_path):
    # Sweedler on Q[z]_{<=2}: x z = 1 is the entry in row 1, column z; the
    # same action as generator images, and its transpose is no action
    x = [["0", "1", "0"], ["0", "0", "0"], ["0", "0", "0"]]
    matrices = {"1": [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]],
                "g": [["1", "0", "0"], ["0", "-1", "0"], ["0", "0", "1"]], "x": x, "gx": x}
    transposed = dict(matrices, x=[list(r) for r in zip(*x)], gx=[list(r) for r in zip(*x)])
    ws = tmp_path / "sweedler.json"
    ws.write_text(json.dumps({
        "schema_version": 1, "hopf_algebras": [{"name": "sw", "builder": "sweedler"}],
        "backends": [{"name": "z", "variables": ["z"], "derivation": {"z": "1"},
                      "degree_cap": 2}],
        "actions": [{"name": "images", "hopf": "sw", "backend": "z", "generator_images": {
                         "g": {"z": "-1*z"}, "x": {"z": "1"}, "gx": {"z": "1"}}},
                    {"name": "matrices", "hopf": "sw", "backend": "z", "matrices": matrices},
                    {"name": "transposed", "hopf": "sw", "backend": "z",
                     "matrices": transposed}]}))
    results = []
    for obj in ("images", "matrices"):
        code, doc, _ = run_cli(capsys, ["annihilator", "--workspace", str(ws), "--object", obj])
        assert code == 0
        results.append(doc["result"])
    assert results[0] == results[1]
    code, doc, _ = run_cli(capsys, ["annihilator", "--workspace", str(ws),
                                    "--object", "transposed"])
    assert code == 4
    assert doc["result"]["message"] == "action is not multiplicative at (g, x)"


# --- caps are validated before anything runs ---------------------------------


@pytest.mark.parametrize("command,workspace,obj,flag,value", [
    ("pi2-kernel", "z2_on_xddx.json", "xddx", "--order-k", "-3"),
    ("z2-kernel", "z2_on_xddx.json", "xddx", "--laurent-b", "-1"),
    ("pin-check", "z2_on_xddx.json", "xddx", "--cap-d", "-1"),
    ("inner-faithful", "sweedler.json", "sweedler_on_z", "--cap-d", "-1"),
    ("tensor-faithful", "z2_on_xddx.json", "z2_on_xddx", "--s-max", "-1"),
    ("tensor-faithful", "z2_on_xddx.json", "z2_on_xddx", "--tensor-budget", "-5"),
    ("commutant", "z2_on_xddx.json", "z2_on_xddx", "--mode-budget", "-1"),
    ("group-likes", "z2_on_xddx.json", "qz2", "--conductor", "0"),
    ("pin-check", "z2_on_xddx.json", "xddx", "--arity-n", "1"),
])
def test_out_of_range_caps_are_usage_errors(capsys, command, workspace, obj, flag, value):
    with pytest.raises(SystemExit) as exc:
        cli.main([command, "--workspace", fixture(workspace), "--object", obj, flag, value])
    assert exc.value.code == 4
    captured = capsys.readouterr()
    assert captured.out == ""  # refused before any machine block
    assert f"{flag} must be at least" in captured.err


def test_smallest_caps_are_accepted(capsys):
    code, doc, _ = run_cli(capsys, [
        "pin-check", "--workspace", Z2, "--object", "xddx", "--cap-d", "0",
        "--arity-n", "2", "--order-k", "0"])
    assert code == 0
    assert doc["result"]["injective"] is True


# --- verdict guards hold under python -O ---------------------------------------


def test_basis_count_mismatch_is_an_input_error_under_O(tmp_path):
    ws = tmp_path / "bad_basis.json"
    ws.write_text(json.dumps({
        "schema_version": 1,
        "hopf_algebras": [
            {"name": "one", "builder": "tensors", "dim": 1, "basis": ["a", "b"],
             "mul": [[0, 0, 0, "1/1"]], "comul": [[0, 0, 0, "1/1"]],
             "counit": ["1/1"], "unit": ["1/1"], "antipode": [[0, 0, "1/1"]]}]}))
    proc = subprocess.run(
        [sys.executable, "-O", "-m", "hopfva.cli", "verify-hopf",
         "--workspace", str(ws), "--object", "one", "--json-only"],
        capture_output=True, text=True)
    assert proc.returncode == 4
    doc = json.loads(proc.stdout.strip())
    assert doc["status"] == "error"
    assert doc["result"]["error"] == "ShapeMismatch"
    assert "2 basis names for dimension 1" in doc["result"]["message"]


ONE_DIM = {"name": "one", "builder": "tensors", "dim": 1, "basis": ["a"],
           "mul": [[0, 0, 0, "1/1"]], "comul": [[0, 0, 0, "1/1"]],
           "counit": ["1/1"], "unit": ["1/1"], "antipode": [[0, 0, "1/1"]]}


@pytest.mark.parametrize("field,value,message", [
    ("mul", [[0, 3, 0, "1/1"]], "mul entry [0, 3, 0, '1/1'] has an index outside 0..0"),
    ("comul", [[0, 0, -1, "1/1"]], "comul entry [0, 0, -1, '1/1'] has an index outside"),
    ("comul", [["0", 0, 0, "1/1"]], "comul entry ['0', 0, 0, '1/1'] has an index outside"),
    ("antipode", [[1, 0, "1/1"]], "antipode entry [1, 0, '1/1'] has an index outside"),
    ("unit", ["1/1", "0"], "unit has 2 entries for dimension 1"),
    ("counit", [], "counit has 0 entries for dimension 1"),
], ids=["mul", "comul", "comul-text-index", "antipode", "unit", "counit"])
def test_tensor_shapes_are_checked_against_dim(capsys, tmp_path, field, value, message):
    ws = tmp_path / "bad_tensors.json"
    ws.write_text(json.dumps({"schema_version": 1,
                              "hopf_algebras": [dict(ONE_DIM, **{field: value})]}))
    code, doc, _ = run_cli(capsys, [
        "verify-hopf", "--workspace", str(ws), "--object", "one"])
    assert code == 4
    assert doc["status"] == "error"
    assert doc["result"]["error"] == "ShapeMismatch"
    assert message in doc["result"]["message"]


def test_action_matrix_size_is_an_input_error_under_O(tmp_path):
    ws = tmp_path / "small_matrix.json"
    ws.write_text(json.dumps({
        "schema_version": 1,
        "hopf_algebras": [{"name": "qz2", "builder": "group_algebra",
                           "table": [[0, 1], [1, 0]], "element_names": ["e", "g"]}],
        "backends": [{"name": "plain", "variables": ["x"],
                      "derivation": {"x": "x"}, "degree_cap": 1}],
        "actions": [{"name": "short", "hopf": "qz2", "backend": "plain",
                     "matrices": {"e": [["1", "0"], ["0", "1"]],
                                  "g": [["1", "0"], ["0"]]}}],
    }))
    for flags in ([], ["-O"]):
        proc = subprocess.run(
            [sys.executable, *flags, "-m", "hopfva.cli", "fixed-points",
             "--workspace", str(ws), "--object", "short", "--json-only"],
            capture_output=True, text=True)
        assert proc.returncode == 4, proc.stderr
        doc = json.loads(proc.stdout.strip())
        assert doc["result"] == {
            "error": "ShapeMismatch",
            "message": "action 'short': the matrix of g is 2x1/2, "
                       "but the carrier has 2 monomials"}


@pytest.mark.parametrize("matrix,shape", [
    ([["1/1", "0"], ["1/1"]], "2x1/2"),
    ([["1/1", "0"]], "1x2"),
    ([], "0x0"),
    ([["1/1", "0"], ["0", "1/1"]], "2x2"),
], ids=["ragged", "1x2", "empty", "2x2"])
def test_irrep_matrix_shape_is_an_input_error_under_O(tmp_path, matrix, shape):
    with open(Z2) as fh:
        data = json.load(fh)
    data["character_tables"][0]["characters"][1]["matrices"][1] = matrix
    ws = tmp_path / "bad_irrep.json"
    ws.write_text(json.dumps(data))
    for flags in ([], ["-O"]):
        proc = subprocess.run(
            [sys.executable, *flags, "-m", "hopfva.cli", "decompose", "--workspace", str(ws),
             "--object", "z2_on_xddx", "--characters", "z2chars", "--json-only"],
            capture_output=True, text=True)
        assert proc.returncode == 4, proc.stderr
        doc = json.loads(proc.stdout.strip())
        assert doc["result"] == {
            "error": "ParseError",
            "message": f"character table 'z2chars': character 'sign': a matrix is {shape}, "
                       f"but degree 1 needs 1x1"}


# --- element order of groups -----------------------------------------------------


def test_decompose_with_identity_listed_second(capsys, tmp_path):
    with open(Z2) as fh:
        data = json.load(fh)
    data["groups"][0].update(table=[[1, 0], [0, 1]], element_names=["g", "e"])
    data["hopf_algebras"][0]["element_names"] = ["g", "e"]
    table = data["character_tables"][0]
    table["classes"] = [[1], [0]]
    for ch in table["characters"]:
        ch["matrices"].reverse()
    swapped = tmp_path / "z2_swapped.json"
    swapped.write_text(json.dumps(data))
    argv = ["decompose", "--object", "z2_on_xddx", "--characters", "z2chars"]
    code, doc, _ = run_cli(capsys, argv + ["--workspace", Z2])
    code2, doc2, _ = run_cli(capsys, argv + ["--workspace", str(swapped)])
    assert code == code2 == 0
    assert doc2["result"] == doc["result"]


# --- Schur-Weyl commands check their inputs --------------------------------------

BROKEN = str(Path(__file__).parent / "golden" / "broken.json")


@pytest.mark.parametrize("command", [
    ["decompose", "--characters", "z2chars"],
    ["multiplicity", "--characters", "z2chars", "--irrep", "sign"],
    ["commutant"],
    ["reach", "--characters", "z2chars", "--irrep", "sign", "--seed", "x"],
])
def test_schur_weyl_refuses_an_action_that_breaks_the_grading(capsys, command):
    # swap_1_x exchanges 1 and x, so g mixes degrees 0 and 1
    code = cli.main([command[0], "--workspace", BROKEN, "--object", "swap_1_x",
                     *command[1:], "--json-only"])
    lines = capsys.readouterr().out.splitlines()
    assert code == 4 and len(lines) == 1
    assert json.loads(lines[0])["result"] == {
        "error": "ValueError", "message": "element g does not preserve the grading"}


def v4_workspace(tmp_path):
    """Z2 x Z2, its group algebra changing the signs of x and y in Q[x, y],
    and its four characters, each named after the generators it negates."""
    signs = {"triv": (1, 1, 1, 1), "sb": (1, -1, 1, -1), "sa": (1, 1, -1, -1),
             "sab": (1, -1, -1, 1)}
    path = tmp_path / "v4.json"
    path.write_text(json.dumps({
        "schema_version": 1,
        "groups": [{"name": "v4", "table": [[0, 1, 2, 3], [1, 0, 3, 2],
                                            [2, 3, 0, 1], [3, 2, 1, 0]]}],
        "hopf_algebras": [{"name": "qv4", "builder": "group_algebra", "group": "v4"}],
        "backends": [{"name": "xy", "variables": ["x", "y"],
                      "derivation": {"x": "x", "y": "y"}, "degree_cap": 2}],
        "actions": [{"name": "v4_signs", "hopf": "qv4", "backend": "xy",
                     "generator_images": {"g1": {"x": "x", "y": "-1*y"},
                                          "g2": {"x": "-1*x", "y": "y"},
                                          "g3": {"x": "-1*x", "y": "-1*y"}}}],
        "character_tables": [{
            "name": "v4chars", "group": "v4", "classes": [[0], [1], [2], [3]],
            "characters": [{"name": name, "degree": 1, "values": [str(v) for v in vals],
                            "matrices": [[[str(v)]] for v in vals]}
                           for name, vals in signs.items()]}],
    }))
    return str(path)


def test_multiplicity_needs_the_character_table_of_the_acting_group(capsys, tmp_path):
    ws = ["--workspace", Z2, v4_workspace(tmp_path), "--json-only"]
    code, doc, _ = run_cli(capsys, ["multiplicity", "--object", "v4_signs",
                                    "--characters", "v4chars", "--irrep", "sa", *ws])
    assert (code, doc["result"]["dims_per_degree"]) == (0, [0, 1, 0])
    for obj, chars, irrep in [("z2_on_xddx", "v4chars", "sa"), ("v4_signs", "z2chars", "sign")]:
        code, doc, _ = run_cli(capsys, ["multiplicity", "--object", obj, "--characters", chars,
                                        "--irrep", irrep, *ws])
        assert code == 4, (obj, doc)
        assert doc["result"] == {
            "error": "ValueError",
            "message": "character table and representation use different groups"}


# --- malformed workspaces are input errors with a machine block ----------------


def with_degree_cap(tmp_path, name, cap):
    with open(fixture(name)) as fh:
        data = json.load(fh)
    data["backends"][0]["degree_cap"] = cap
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


@pytest.mark.parametrize("command,workspace,obj,backend", [
    ("inner-faithful", "sweedler.json", "sweedler_on_z", "q_z_ddz"),
    ("pin-check", "z2_on_xddx.json", "xddx", "xddx"),
])
@pytest.mark.parametrize("cap", [-1, 1.5, "two", True])
def test_workspace_degree_cap_is_checked_like_cap_d(capsys, tmp_path, command, workspace,
                                                     obj, backend, cap):
    path = with_degree_cap(tmp_path, workspace, cap)
    code, doc, _ = run_cli(capsys, [command, "--workspace", path, "--object", obj])
    assert code == 4
    assert doc["result"] == {
        "error": "ParseError",
        "message": f"backend {backend!r}: degree_cap must be an integer of at least 0, "
                   f"got {cap!r}"}
    # an explicit --cap-d replaces the workspace value
    code, _, _ = run_cli(capsys, [command, "--workspace", path, "--object", obj,
                                  "--cap-d", "2"])
    assert code == 0


def test_action_matrix_missing_for_a_basis_element_under_O(tmp_path):
    ws = tmp_path / "missing_matrix.json"
    ws.write_text(json.dumps({
        "schema_version": 1,
        "hopf_algebras": [{"name": "qz2", "builder": "group_algebra",
                           "table": [[0, 1], [1, 0]], "element_names": ["e", "g"]}],
        "backends": [{"name": "plain", "variables": ["x"],
                      "derivation": {"x": "x"}, "degree_cap": 1}],
        "actions": [{"name": "only_e", "hopf": "qz2", "backend": "plain",
                     "matrices": {"e": [["1", "0"], ["0", "1"]]}}],
    }))
    for flags in ([], ["-O"]):
        proc = subprocess.run(
            [sys.executable, *flags, "-m", "hopfva.cli", "fixed-points",
             "--workspace", str(ws), "--object", "only_e", "--json-only"],
            capture_output=True, text=True)
        assert proc.returncode == 4, proc.stderr
        doc = json.loads(proc.stdout.strip())
        assert doc["result"] == {
            "error": "ShapeMismatch",
            "message": "action 'only_e': no matrix for basis element 'g'"}


VERIFY_H = ("verify-hopf", "h")


@pytest.mark.parametrize("text,error,message,query", [
    ("[]", "ParseError", "a workspace must be a JSON object", VERIFY_H),
    ('{"schema_version": 1, "backends": 3}', "ParseError", "backends must be a list", VERIFY_H),
    ('{"schema_version": 1, "groups": ["z2"]}', "ParseError",
     "each groups entry must be an object", VERIFY_H),
    ('{"schema_version": 1, "hopf_algebras": [{"name": "h", "dim": "2", "mul": [],'
     ' "comul": [], "counit": [], "unit": [], "antipode": []}]}', "ParseError",
     "Hopf algebra 'h': dim must be an integer of at least 0, got '2'", VERIFY_H),
    ('{"schema_version": 1, "hopf_algebras": [{"name": "h", "dim": 1,'
     ' "mul": [[0, 0, 0, "1/0"]], "comul": [[0, 0, 0, "1"]], "counit": ["1"],'
     ' "unit": ["1"], "antipode": [[0, 0, "1"]]}]}', "ParseError",
     "Hopf algebra 'h': mul: zero denominator in scalar '1/0'", VERIFY_H),
    ('{"schema_version": 1, "hopf_algebras": [{"name": "h", "builder": "dual", "of": "h"}]}',
     "ParseError", "cyclic reference: hopf_algebra 'h' -> hopf_algebra 'h'", VERIFY_H),
    ('{"schema_version": 1, "hopf_algebras": [{"name": "h", "dim": 1,'
     ' "mul": [[0, 0, 0, 1]], "comul": [[0, 0, 0, "1"]], "counit": ["1"],'
     ' "unit": ["1"], "antipode": [[0, 0, "1"]]}]}', "ParseError",
     "Hopf algebra 'h': mul: a scalar must be a string such as \"1/2\", got 1", VERIFY_H),
    ('{"schema_version": 1, "hopf_algebras": [{"name": ["h"], "builder": "sweedler"}]}',
     "ParseError", "hopf_algebras entry name ['h'] is not a string", VERIFY_H),
    ('{"schema_version": 1, "backends": [{"name": "b", "variables": ["x"],'
     ' "degree_cap": 2, "derivation": {"x": 1}}]}', "ParseError",
     "backend 'b': derivation of x: a polynomial must be a string such as \"x^2\", got 1",
     ("pi2-kernel", "b")),
    ('{"schema_version": 1, "groups": [{"name": "z2", "table": [[0, 1], [1, 0]]}],'
     ' "hopf_algebras": [{"name": "qz2", "builder": "group_algebra", "group": "z2"}],'
     ' "backends": [{"name": "b", "variables": ["x"], "degree_cap": 2,'
     ' "derivation": {"x": "x"}}], "actions": [{"name": "a", "hopf": ["qz2"],'
     ' "backend": "b", "matrices": {}}]}', "ParseError",
     "action 'a': hopf must name a hopf_algebra, got ['qz2']", ("fixed-points", "a")),
    ('{"schema_version": 1, "backends": [{"name": "b", "variables": ["x"],'
     ' "degree_cap": 2, "derivation": 1}]}', "ParseError",
     "backend 'b': derivation must map some of the variables ['x'] to polynomials, got 1",
     ("pi2-kernel", "b")),
    ('{"schema_version": 1, "backends": [{"name": "b", "variables": ["x"],'
     ' "degree_cap": 2, "derivation": {"z": "1"}}]}', "ParseError",
     "backend 'b': derivation must map some of the variables ['x'] to polynomials, "
     "got {'z': '1'}", ("pi2-kernel", "b")),
    ('{"schema_version": 1, "backends": [{"name": "b", "variables": "xy",'
     ' "degree_cap": 2, "derivation": {"x": "1"}}]}', "ParseError",
     "backend 'b': variables must be a list of distinct names, got 'xy'", ("pi2-kernel", "b")),
    ('{"schema_version": 1, "backends": [{"name": "b", "variables": ["x", "x"],'
     ' "degree_cap": 1, "derivation": {"x": "x"}}]}', "ParseError",
     "backend 'b': variables must be a list of distinct names, got ['x', 'x']",
     ("pi2-kernel", "b")),
    # names that polynomial text reads as a number, an operator or a scalar:
    # ["1"] with d(1) = 1 was read as d(v) = v
    *[('{"schema_version": 1, "backends": [{"name": "b", "variables": ["%s"],'
       ' "degree_cap": 2, "derivation": {"%s": "1"}}]}' % (v, v), "ParseError",
       f"backend 'b': variable '{v}' must match [A-Za-z_][A-Za-z0-9_]* "
       "and not start with zeta", ("pi2-kernel", "b"))
      for v in ("1", "x*y", "zeta3")],
], ids=["array", "section-not-list", "entry-not-object", "text-dim", "zero-denominator",
        "self-dual", "number-scalar", "list-name", "number-polynomial", "list-reference",
        "number-derivation", "unknown-derivation-variable", "string-variables",
        "repeated-variable", "numeral-variable", "product-variable", "zeta-variable"])
def test_malformed_workspace_is_an_input_error(capsys, tmp_path, text, error, message, query):
    ws = tmp_path / "malformed.json"
    ws.write_text(text)
    command, obj = query
    code, doc, _ = run_cli(capsys, [command, "--workspace", str(ws), "--object", obj])
    assert code == 4
    assert doc["status"] == "error"
    assert doc["result"]["error"] == error
    assert message in doc["result"]["message"]


def _mutated_z2(tmp_path, mutate):
    """The z2_on_xddx fixture with `mutate` applied to its parsed JSON, as a file."""
    ws = json.loads(Path(Z2).read_text())
    mutate(ws)
    path = tmp_path / "mutated.json"
    path.write_text(json.dumps(ws))
    return str(path)


def _z2_sign(ws):
    return ws["character_tables"][0]["characters"][1]


CHARS = "character table 'z2chars'"


def _on_s3(ws, classes):
    """The character table on S3 (elements in sorted permutation order), with
    `classes` and no characters."""
    ws["groups"].append({"name": "s3", "table": symmetric_group_table(3)})
    ws["character_tables"][0].update(group="s3", classes=classes, characters=[])


@pytest.mark.parametrize("mutate,message", [
    (lambda ws: ws["character_tables"][0].update(characters=3),
     f"{CHARS}: characters must be a list of objects, got 3"),
    (lambda ws: ws["character_tables"][0].update(classes=3),
     f"{CHARS}: classes must be a list of rows of element indices, got 3"),
    (lambda ws: ws["character_tables"][0].update(classes=[[0], ["1"]]),
     f"{CHARS}: classes must be a list of rows of element indices, got [[0], ['1']]"),
    (lambda ws: _z2_sign(ws).update(values=3),
     f"{CHARS}: character 'sign': values must be a list of scalars, got 3"),
    (lambda ws: _z2_sign(ws).update(degree="1"),
     f"{CHARS}: character 'sign': degree must be an integer of at least 1, got '1'"),
    (lambda ws: _z2_sign(ws).pop("name"), f"{CHARS}: character 1: needs the field 'name'"),
    (lambda ws: _z2_sign(ws).update(values=["1", "ab"]),
     f"{CHARS}: character 'sign': values: cannot parse scalar 'ab'"),
    (lambda ws: _z2_sign(ws).update(values=["1"]),
     f"{CHARS}: character 'sign': values must give one scalar for each of the 2 classes, "
     "got ['1']"),
    (lambda ws: ws["character_tables"][0].update(classes=[[0], [5]]),
     f"{CHARS}: classes name element 5, which is not in 0..1"),
    (lambda ws: ws["character_tables"][0].update(classes=[[0], [-1]]),
     f"{CHARS}: classes name element -1, which is not in 0..1"),
    (lambda ws: ws["character_tables"][0].update(classes=[[0], [0]]),
     f"{CHARS}: classes do not partition the group"),
    (lambda ws: _on_s3(ws, [[0], [1, 2], [3, 4, 5]]),
     f"{CHARS}: classes are not conjugation-closed"),
], ids=["characters-number", "classes-number", "classes-string", "values-number",
        "degree-string", "name-missing", "values-text", "values-short", "classes-outside",
        "classes-negative", "classes-overlap", "classes-not-conjugation-closed"])
def test_malformed_character_table_is_an_input_error(capsys, tmp_path, mutate, message):
    # each of these ended in a traceback, a bare KeyError or an error class that does
    # not name the table and the field
    code, doc, _ = run_cli(capsys, [
        "decompose", "--workspace", _mutated_z2(tmp_path, mutate), "--object", "z2_on_xddx",
        "--characters", "z2chars"])
    assert code == 4
    assert doc["result"] == {"error": "ParseError", "message": message}


def _matrices_instead(ws, matrices):
    action = ws["actions"][0]
    del action["generator_images"]
    action["matrices"] = matrices


ACTION = "action 'z2_on_xddx'"


@pytest.mark.parametrize("mutate,message", [
    (lambda ws: ws["actions"][0].update(generator_images=3),
     f"{ACTION}: generator_images must be an object keyed by basis elements, got 3"),
    (lambda ws: ws["actions"][0]["generator_images"].update(g=3),
     f"{ACTION}: generator_images of g must be an object mapping variables to "
     "polynomials, got 3"),
    (lambda ws: ws["actions"][0]["generator_images"].update(h={"x": "x"}),
     f"{ACTION}: generator_images names 'h', which is not a basis element of the "
     "Hopf algebra ['e', 'g']"),
    (lambda ws: ws["actions"][0]["generator_images"].update(g={}),
     f"{ACTION}: generator_images of g must map exactly the variables ['x'], got {{}}"),
    (lambda ws: ws["actions"][0]["generator_images"]["g"].update(y="x"),
     f"{ACTION}: generator_images of g must map exactly the variables ['x'], "
     "got {'x': '-1*x', 'y': 'x'}"),
    (lambda ws: ws["actions"][0]["generator_images"].update(g={"x": "x^"}),
     f"{ACTION}: the image of x under g: exponent '' of 'x' is not an integer"),
    (lambda ws: ws["actions"][0]["generator_images"].update(g={"x": "x^-1"}),
     f"{ACTION}: the image of x under g: exponent -1 of 'x' is negative"),
    (lambda ws: _matrices_instead(ws, 3),
     f"{ACTION}: matrices must be an object keyed by basis elements, got 3"),
    (lambda ws: _matrices_instead(ws, {"e": [], "g": [], "h": []}),
     f"{ACTION}: matrices names 'h', which is not a basis element of the "
     "Hopf algebra ['e', 'g']"),
    (lambda ws: _matrices_instead(ws, {"e": 1, "g": 1}),
     f"{ACTION}: the matrix of e must be a list of rows of scalars, got 1"),
], ids=["images-number", "image-map-number", "images-unknown-element", "image-missing-var",
        "image-unknown-var", "image-text", "image-negative-exponent", "matrices-number",
        "matrices-unknown-element", "matrix-number"])
def test_malformed_action_is_an_input_error(capsys, tmp_path, mutate, message):
    # the numbers ended in a traceback, the unknown keys were ignored with exit 0
    # and the missing variable was a bare KeyError
    code, doc, _ = run_cli(capsys, [
        "fixed-points", "--workspace", _mutated_z2(tmp_path, mutate), "--object", "z2_on_xddx"])
    assert code == 4
    assert doc["result"] == {"error": "ParseError", "message": message}


@pytest.mark.parametrize("seed,message", [
    (["--seed", "x^"], "--seed: exponent '' of 'x' is not an integer"),
    ([], "--seed: a polynomial must be a string such as \"x^2\", got None")])
def test_reach_seed_is_read_as_a_polynomial(capsys, seed, message):
    code, doc, _ = run_cli(capsys, [
        "reach", "--workspace", Z2, "--object", "z2_on_xddx", "--characters", "z2chars",
        "--irrep", "sign", *seed])
    assert code == 4
    assert doc["result"] == {"error": "ParseError", "message": message}


def test_dual_cycle_names_every_link(capsys, tmp_path):
    ws = tmp_path / "cycle.json"
    ws.write_text(json.dumps({"schema_version": 1, "hopf_algebras": [
        {"name": "a", "builder": "dual", "of": "b"},
        {"name": "b", "builder": "dual", "of": "a"}]}))
    code, doc, _ = run_cli(capsys, ["verify-hopf", "--workspace", str(ws), "--object", "a"])
    assert code == 4
    assert doc["result"] == {"error": "ParseError", "message": "cyclic reference: "
                             "hopf_algebra 'a' -> hopf_algebra 'b' -> hopf_algebra 'a'"}


def test_wrong_character_values_are_refused_under_O(tmp_path):
    # a sign character with values [1, 1/3] is not orthogonal to the trivial
    # one: an input error when the table loads, with either interpreter flag,
    # before any multiplicity (2/3 here) is computed or truncated to 0
    ws = json.loads(Path(Z2).read_text())
    for ch in ws["character_tables"][0]["characters"]:
        del ch["matrices"]
        if ch["name"] == "sign":
            ch["values"] = ["1", "1/3"]
    path = tmp_path / "third.json"
    path.write_text(json.dumps(ws))
    for flags in ([], ["-O"]):
        for command in (["decompose"], ["multiplicity", "--irrep", "sign"]):
            proc = subprocess.run(
                [sys.executable, *flags, "-m", "hopfva.cli", command[0], "--workspace",
                 str(path), "--object", "z2_on_xddx", "--characters", "z2chars",
                 *command[1:], "--json-only"],
                capture_output=True, text=True)
            assert proc.returncode == 4, (flags, command, proc.stdout, proc.stderr)
            doc = json.loads(proc.stdout.strip())
            assert doc["result"] == {
                "error": "ParseError",
                "message": "character table 'z2chars' fails row-orthogonality: (triv, sign)"}


def non_character_workspace():
    """Z/4 scaling (Q(zeta_4)[x], x d/dx), and a table whose rows are
    zeta_4^(j s(g)) for s swapping g and g^2: orthonormal rows of degree 1,
    but no row other than chi0 is a homomorphism."""
    powers = ["1", "zeta(4):[0,1]", "-1", "zeta(4):[0,-1]"]  # zeta_4^k
    swap = [0, 2, 1, 3]
    return {
        "schema_version": 1,
        "groups": [{"name": "z4", "table": [[(a + b) % 4 for b in range(4)] for a in range(4)]}],
        "hopf_algebras": [{"name": "qz4", "builder": "group_algebra", "group": "z4"}],
        "backends": [{"name": "xddx", "variables": ["x"], "derivation": {"x": "x"},
                      "degree_cap": 3}],
        "actions": [{"name": "z4scale", "hopf": "qz4", "backend": "xddx", "generator_images": {
            f"g{k}": {"x": f"{powers[k]}*x"} for k in (1, 2, 3)}}],
        "character_tables": [{
            "name": "z4chars", "group": "z4", "classes": [[g] for g in range(4)],
            "characters": [{"name": f"chi{j}", "degree": 1,
                            "values": [powers[j * swap[g] % 4] for g in range(4)]}
                           for j in range(4)]}]}


def test_a_table_of_non_characters_is_an_input_error(capsys, tmp_path):
    # chi1 = (1, -1, i, -i) passes every other table check; decompose used to
    # stop at a multiplicity of 1/2 and report it as an internal error.  Now
    # e_chi1 = (1/4) sum chi1(g^-1) g fails to be idempotent when the table loads
    path = tmp_path / "z4.json"
    path.write_text(json.dumps(non_character_workspace()))
    code, doc, _ = run_cli(capsys, ["decompose", "--workspace", str(path), "--object",
                                    "z4scale", "--characters", "z4chars", "--json-only"])
    assert code == 4
    assert doc["result"] == {
        "error": "ParseError",
        "message": "character table 'z4chars' fails central-idempotents: e_chi1^2 != e_chi1"}
    assert non_character_workspace()["character_tables"][0]["characters"][1]["values"] == [
        "1", "-1", "zeta(4):[0,1]", "zeta(4):[0,-1]"]


def test_group_likes_of_sweedler_entered_as_tensors(capsys, tmp_path):
    # nothing but the structure constants: both group-likes, the unit first
    path = tmp_path / "raw.json"
    path.write_text(json.dumps({"schema_version": 1, "hopf_algebras": [
        tensors_entry(sweedler(), "sw")]}))
    code, doc, _ = run_cli(capsys, ["group-likes", "--workspace", str(path), "--object", "sw"])
    assert code == 0
    assert doc["result"] == {"count": 2, "elements": [["1/1", "0/1", "0/1", "0/1"],
                                                      ["0/1", "1/1", "0/1", "0/1"]]}


def test_group_like_basis_field_is_rejected(tmp_path):
    # group-likes are computed, so a declaration that could miss one (here
    # g) is an input error naming the Hopf algebra and the field, with
    # either interpreter flag, whatever the builder: no builder reads it
    path = tmp_path / "declared.json"
    path.write_text(json.dumps({"schema_version": 1, "hopf_algebras": [
        tensors_entry(sweedler(), "sw", group_like_basis=[0]),
        {"name": "sw2", "builder": "sweedler", "group_like_basis": [0, 1]}]}))
    for flags in ([], ["-O"]):
        for obj in ("sw", "sw2"):
            proc = subprocess.run(
                [sys.executable, *flags, "-m", "hopfva.cli", "group-likes", "--workspace",
                 str(path), "--object", obj, "--json-only"],
                capture_output=True, text=True)
            assert proc.returncode == 4, (flags, proc.stdout, proc.stderr)
            doc = json.loads(proc.stdout.strip())
            builder = {"sw": "tensors", "sw2": "sweedler"}[obj]
            assert doc["result"] == {
                "error": "ParseError",
                "message": f"Hopf algebra {obj!r}: the {builder} builder reads "
                           f"no field 'group_like_basis'"}


# --- the README documents the command table ------------------------------------


def test_readme_names_every_command_and_flag():
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    cli_section = readme.split("## CLI", 1)[1].split("\n## ", 1)[0]
    flags = [s for a in cli.build_parser()._actions for s in a.option_strings]
    missing = [name for name in [*cli.COMMANDS, *flags]
               if not re.search(rf"`{re.escape(name)}[` ]", cli_section)]
    assert missing == []


@pytest.mark.parametrize("argv", [
    ["decompose"], ["reach", "--irrep", "sign", "--seed", "x"],
    ["distinguish", "--irrep", "sign", "--irrep2", "triv"]])
def test_a_query_checks_the_central_idempotents_once(capsys, monkeypatch, argv):
    # the table check at load and the projectors read one result per table,
    # and nothing carries it from one query to the next
    from hopfva import schurweyl
    runs = []
    original = schurweyl._idempotent_failures

    def counted(table):
        runs.append(table)
        return original(table)

    monkeypatch.setattr(schurweyl, "_idempotent_failures", counted)
    full = [argv[0], "--workspace", Z2, "--object", "z2_on_xddx",
            "--characters", "z2chars"] + argv[1:]
    for query in (1, 2):
        code, _, _ = run_cli(capsys, full)
        assert code in (0, 3)
        assert len(runs) == query
    assert runs[0] is not runs[1]


# --- group tables: one validation per load, S5 entered as a table ---------------


def test_a_character_table_validates_its_group_once(capsys, monkeypatch):
    from hopfva import hopf, schurweyl

    def counted(module):
        seen, original = [], module._validate_group_table
        monkeypatch.setattr(module, "_validate_group_table",
                            lambda table: seen.append(table) or original(table))
        return seen

    in_hopf, in_schurweyl = counted(hopf), counted(schurweyl)
    code, _, _ = run_cli(capsys, ["decompose", "--workspace", Z2, "--object", "z2_on_xddx",
                                  "--characters", "z2chars"])
    assert code == 0
    # the group algebra and the character table each validate the table once
    assert len(in_hopf) == 2 and in_schurweyl == []


def _element_orders(table):
    """The sorted orders of the elements of a table with identity 0."""
    orders = []
    for x in range(len(table)):
        k, y = 1, x
        while y != 0:
            y, k = table[y][x], k + 1
        orders.append(k)
    return sorted(orders)


def test_s5_entered_as_a_table_is_recognised(capsys, tmp_path):
    s5 = symmetric_group_table(5)
    path = tmp_path / "s5.json"
    path.write_text(json.dumps({
        "schema_version": 1, "groups": [{"name": "s5", "table": s5}],
        "hopf_algebras": [{"name": "qs5", "builder": "group_algebra", "group": "s5"}]}))
    code, doc, _ = run_cli(capsys, ["recognize-group-algebra", "--workspace", str(path),
                                    "--object", "qs5"])
    assert code == 0 and doc["result"]["group_algebra"] is True
    table = doc["result"]["table"]
    n = len(table)
    assert n == 120 and table[0] == list(range(n))
    assert all(sorted(row) == list(range(n)) for row in table)
    assert all(table[table[i][j]] == [table[i][x] for x in table[j]]
               for i in range(n) for j in range(n))   # every triple associative
    assert any(table[i][j] != table[j][i] for i in range(n) for j in range(n))
    assert _element_orders(table) == _element_orders(s5)
