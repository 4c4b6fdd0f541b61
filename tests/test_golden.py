"""Behaviour lock: the machine block and exit status of every command.

`golden/machine_blocks.json` holds, for each case below, the exact machine
block line and exit status the CLI produced when the corpus was recorded.
Passing, failing (with witnesses), refused and error verdicts are all
covered: the bundled fixtures, `--cap-d` variants, `golden/broken.json`
(Hopf algebras entered as `tensors` that break each axiom, which
`verify-hopf` reports and other commands refuse at load, and
explicit-matrix actions that break the module and closure checks) and
`golden/duals.json` (the duals of Q[S3] and Q[A4], whose own duals are not
commutative, and a rejected `group_like_basis` field) and
`golden/schurweyl.json` (S3 permuting Q[x1, x2, x3] with a character table
whose `std` carries 2x2 matrices and whose `triv` carries none, and Z3
scaling Q(zeta_3)[x] and Q(zeta_3)[x, y] with its Q(zeta_3) table) and
`golden/witness.json` (S3 permuting Q[x1, x2, x3] with
d x_i = x1 + x2 + x3 + x_i^2 at cap 2: a d that raises degree and is not
homogeneous, so pi2-kernel climbs the truncated order ladder, imposing the
orders above its start at K = 2 and 3, and the module checks run on every
basis element).

To record the corpus again after a deliberate change of output, run
`PYTHONPATH=src python tests/test_golden.py` and review the diff.
"""

import contextlib
import io
import json
import subprocess
import sys
from importlib import resources
from pathlib import Path

from hopfva import cli

GOLDEN_DIR = Path(__file__).parent / "golden"
GOLDEN = GOLDEN_DIR / "machine_blocks.json"

S, Z, XY, B = "sweedler.json", "z2_on_xddx.json", "xy_diagonal.json", "broken.json"
D, SW, W = "duals.json", "schurweyl.json", "witness.json"
Z2CH = ["--characters", "z2chars"]
S3CH, Z3CH = ["--characters", "s3chars"], ["--characters", "z3chars"]

# (workspace file, command, object, extra options)
CASES = [
    (S, "verify-hopf", "sweedler", []),
    (Z, "verify-hopf", "qz2", []),
    (B, "verify-hopf", "qz2", []),
    (B, "verify-hopf", "bad_antipode", []),
    (B, "verify-hopf", "bad_unit", []),
    (B, "verify-hopf", "bad_counit", []),
    (B, "verify-hopf", "bad_comul", []),
    (B, "verify-hopf", "bad_mul", []),
    (Z, "verify-hopf", "no_such_hopf", []),
    (S, "cocommutative", "sweedler", []),
    (Z, "cocommutative", "qz2", []),
    (B, "cocommutative", "bad_comul", []),
    (S, "group-likes", "sweedler", []),
    (Z, "group-likes", "qz2", []),
    (Z, "group-likes", "qz2", ["--conductor", "2"]),
    (D, "group-likes", "qs3_dual", []),
    (D, "group-likes", "qa4_dual", []),
    (D, "group-likes", "qa4_dual", ["--conductor", "3"]),
    (D, "group-likes", "declared", []),
    (S, "recognize-group-algebra", "sweedler", []),
    (Z, "recognize-group-algebra", "qz2", []),
    (B, "recognize-group-algebra", "bad_mul", []),
    (S, "verify-action", "sweedler_on_z", []),
    (S, "verify-action", "sweedler_on_z", ["--cap-d", "2"]),
    (S, "verify-action", "sweedler_on_z", ["--order-k", "1"]),
    (Z, "verify-action", "z2_on_xddx", []),
    (Z, "verify-action", "z2_on_xddx", ["--cap-d", "3"]),
    (B, "verify-action", "swap_1_x", []),
    (B, "verify-action", "sign_on_x2", []),
    (B, "verify-action", "swap_1_x", ["--cap-d", "1"]),
    (Z, "pi2-kernel", "xddx", []),
    (Z, "pi2-kernel", "xddx", ["--cap-d", "3"]),
    (S, "pi2-kernel", "q_z_ddz", []),
    (XY, "pi2-kernel", "xy_diag", []),
    (XY, "pi2-kernel", "xy_diag", ["--cap-d", "1", "--order-k", "10"]),
    (Z, "pin-check", "xddx", ["--cap-d", "3"]),
    (XY, "pin-check", "xy_diag", []),
    (XY, "pin-check", "xy_diag", ["--arity-n", "2"]),
    (S, "pin-check", "q_z_ddz", ["--cap-d", "2"]),
    (Z, "z2-kernel", "xddx", ["--cap-d", "2", "--order-k", "4", "--laurent-b", "1"]),
    (XY, "z2-kernel", "xy_diag", ["--cap-d", "1", "--order-k", "3", "--laurent-b", "1"]),
    (S, "z2-kernel", "q_z_ddz", ["--cap-d", "2", "--order-k", "3", "--laurent-b", "1"]),
    (S, "fixed-points", "sweedler_on_z", []),
    (Z, "fixed-points", "z2_on_xddx", []),
    (Z, "fixed-points", "z2_on_xddx", ["--cap-d", "4"]),
    (B, "fixed-points", "swap_1_x", []),
    (B, "fixed-points", "sign_on_x2", []),
    (S, "annihilator", "sweedler_on_z", []),
    (Z, "annihilator", "z2_on_xddx", []),
    (Z, "annihilator", "z2_on_xddx", ["--cap-d", "2"]),
    (S, "inner-faithful", "sweedler_on_z", []),
    (Z, "inner-faithful", "z2_on_xddx", []),
    (Z, "inner-faithful", "z2_on_xddx", ["--cap-d", "0"]),
    (S, "quotient", "sweedler_on_z", []),
    (Z, "quotient", "z2_on_xddx", []),
    (Z, "quotient", "z2_on_xddx", ["--cap-d", "0"]),
    (S, "tensor-faithful", "sweedler_on_z", ["--cap-d", "1", "--s-max", "2"]),
    (Z, "tensor-faithful", "z2_on_xddx", ["--cap-d", "2", "--s-max", "2"]),
    (Z, "tensor-faithful", "z2_on_xddx", ["--tensor-budget", "4"]),
    (S, "thm-5-1", "sweedler_on_z", []),
    (Z, "thm-5-1", "z2_on_xddx", []),
    (Z, "thm-5-1", "z2_on_xddx", ["--cap-d", "3"]),
    (S, "thm-5-4", "sweedler_on_z", []),
    (Z, "thm-5-4", "z2_on_xddx", []),
    (Z, "thm-5-4", "z2_on_xddx", ["--cap-d", "3"]),
    (Z, "decompose", "z2_on_xddx", Z2CH),
    (Z, "decompose", "z2_on_xddx", Z2CH + ["--cap-d", "3"]),
    (B, "decompose", "sign_on_x2", Z2CH),
    (SW, "decompose", "s3perm", S3CH),
    (SW, "decompose", "s3perm", S3CH + ["--cap-d", "1"]),
    (SW, "decompose", "z3scale", Z3CH),
    (SW, "decompose", "z3plane", Z3CH),
    (Z, "multiplicity", "z2_on_xddx", Z2CH + ["--irrep", "triv"]),
    (Z, "multiplicity", "z2_on_xddx", Z2CH + ["--irrep", "sign", "--cap-d", "3"]),
    (B, "multiplicity", "sign_on_x2", Z2CH + ["--irrep", "sign"]),
    (SW, "multiplicity", "s3perm", S3CH + ["--irrep", "std"]),
    (SW, "multiplicity", "s3perm", S3CH + ["--irrep", "triv"]),
    (SW, "multiplicity", "z3scale", Z3CH + ["--irrep", "chi1", "--cap-d", "4"]),
    (Z, "commutant", "z2_on_xddx", []),
    (Z, "commutant", "z2_on_xddx", ["--mode-budget", "0", "--cap-d", "3"]),
    (B, "commutant", "sign_on_x2", []),
    (Z, "reach", "z2_on_xddx", Z2CH + ["--irrep", "triv", "--seed", "x^2"]),
    (Z, "reach", "z2_on_xddx", Z2CH + ["--irrep", "sign", "--seed", "x"]),
    (Z, "reach", "z2_on_xddx", Z2CH + ["--irrep", "sign", "--seed", "x^2"]),
    (SW, "reach", "s3perm", S3CH + ["--irrep", "std", "--seed", "x1 - x2"]),
    (SW, "reach", "s3perm", S3CH + ["--irrep", "sign", "--seed",
                                    "x1^2*x2 - x1^2*x3 - x1*x2^2 + x1*x3^2 + x2^2*x3 - x2*x3^2"]),
    (SW, "reach", "s3perm", S3CH + ["--irrep", "std", "--seed", "x1"]),
    (SW, "reach", "z3scale", Z3CH + ["--irrep", "chi1", "--seed", "x^4"]),
    (SW, "reach", "z3plane", Z3CH + ["--irrep", "chi1", "--seed", "x"]),
    (Z, "distinguish", "z2_on_xddx", Z2CH + ["--irrep", "triv", "--irrep2", "sign"]),
    (Z, "distinguish", "z2_on_xddx",
     Z2CH + ["--irrep", "triv", "--irrep2", "sign", "--cap-d", "0"]),
    (SW, "distinguish", "s3perm", S3CH + ["--irrep", "triv", "--irrep2", "sign"]),
    (SW, "distinguish", "s3perm", S3CH + ["--irrep", "std", "--irrep2", "std"]),
    (SW, "distinguish", "z3scale", Z3CH + ["--irrep", "chi1", "--irrep2", "chi2"]),
    (SW, "distinguish", "z3plane", Z3CH + ["--irrep", "chi1", "--irrep2", "chi2"]),
    (W, "pi2-kernel", "witness", []),
    (W, "pi2-kernel", "witness", ["--order-k", "2"]),
    (W, "pi2-kernel", "witness", ["--order-k", "3"]),
    (W, "verify-action", "s3witness", []),
    (W, "inner-faithful", "s3witness", []),
    (W, "thm-5-1", "s3witness", []),
    (W, "fixed-points", "s3witness", []),
]


def workspace_path(name):
    bundled = resources.files("hopfva") / "fixtures" / name
    return str(bundled) if bundled.is_file() else str(GOLDEN_DIR / name)


def argv_of(case):
    ws, command, obj, extra = case
    return [command, "--workspace", workspace_path(ws), "--object", obj,
            "--json-only", *extra]


def run_case(case):
    """(exit status, machine block line) of one in-process CLI call."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv_of(case))
    return code, out.getvalue().splitlines()[0]


def recorded():
    with open(GOLDEN) as fh:
        return [(tuple(e["case"]), e["exit"], e["block"]) for e in json.load(fh)]


def test_corpus_lists_every_case_and_command():
    assert [case for case, _, _ in recorded()] == CASES
    assert {command for _, command, _, _ in CASES} == set(cli.COMMANDS)


def test_machine_blocks_are_byte_identical():
    for case, code, block in recorded():
        assert run_case(case) == (code, block), case


_UNDER_O = """
import json, sys
sys.path[:0] = {paths!r}
import test_golden
print(json.dumps([test_golden.run_case(c) for c in test_golden.CASES]))
"""


def test_machine_blocks_are_byte_identical_under_O():
    paths = [str(Path(__file__).parent), str(Path(cli.__file__).parents[1])]
    proc = subprocess.run(
        [sys.executable, "-O", "-c", _UNDER_O.format(paths=paths)],
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    got = json.loads(proc.stdout)
    for (case, code, block), (got_code, got_block) in zip(recorded(), got):
        assert (got_code, got_block) == (code, block), case
    assert len(got) == len(CASES)


if __name__ == "__main__":
    entries = []
    for case in CASES:
        code, block = run_case(case)
        entries.append({"case": list(case), "exit": code, "block": block})
    with open(GOLDEN, "w") as fh:
        json.dump(entries, fh, indent=1)
        fh.write("\n")
