"""Seeded single-field mutations of the bundled fixtures, run through the CLI.

Each run deletes one field of a fixture, or replaces it with one value of a
fixed list, writes the workspace and runs one command on it in-process.
Whatever the input, the run must print one machine block whose status
matches a documented exit code, and raise nothing.
"""

import json
import random
from importlib import resources

import pytest

from hopfva import cli

# fixture -> the commands run on its mutations
COMMANDS = {
    "sweedler.json": [
        ["cocommutative", "--object", "sweedler"],
        ["verify-hopf", "--object", "sweedler"],
        ["verify-action", "--object", "sweedler_on_z", "--cap-d", "2"],
        ["pi2-kernel", "--object", "q_z_ddz", "--cap-d", "2"],
        ["annihilator", "--object", "sweedler_on_z", "--cap-d", "2"],
    ],
    "xy_diagonal.json": [
        ["pi2-kernel", "--object", "xy_diag", "--cap-d", "1"],
        ["pin-check", "--object", "xy_diag", "--cap-d", "1"],
        ["z2-kernel", "--object", "xy_diag", "--cap-d", "1", "--order-k", "3",
         "--laurent-b", "1"],
    ],
    "z2_on_xddx.json": [
        ["verify-hopf", "--object", "qz2"],
        ["group-likes", "--object", "qz2"],
        ["verify-action", "--object", "z2_on_xddx", "--cap-d", "3"],
        ["fixed-points", "--object", "z2_on_xddx", "--cap-d", "3"],
        ["inner-faithful", "--object", "z2_on_xddx", "--cap-d", "2"],
        ["decompose", "--object", "z2_on_xddx", "--characters", "z2chars",
         "--cap-d", "2"],
    ],
}

REPLACEMENTS = [None, True, 0, -1, 2, 1.5, "", "x", "1/0", "-1", "zeta(3):[1,1]",
                "x^-1", "x^y", [], [0], {}, {"x": "x"}]
RUNS = 1000
EXIT_OF_STATUS = {"pass": 0, "refused": 2, "fail": 3, "error": 4}


def _paths(node, prefix=()):
    """Every field below the root, as a key path."""
    keys = node.keys() if isinstance(node, dict) else \
        range(len(node)) if isinstance(node, list) else ()
    for key in keys:
        yield prefix + (key,)
        yield from _paths(node[key], prefix + (key,))


def _mutated(doc, path, value, delete):
    doc = json.loads(json.dumps(doc))
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if delete:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    return doc


def _mutations():
    rng = random.Random(20231013)
    fixtures = {name: json.loads((resources.files("hopfva") / "fixtures" / name).read_text())
                for name in COMMANDS}
    paths = {name: sorted(_paths(doc), key=repr) for name, doc in fixtures.items()}
    for _ in range(RUNS):
        name = rng.choice(sorted(COMMANDS))
        path = rng.choice(paths[name])
        choice = rng.randrange(len(REPLACEMENTS) + 1)
        delete = choice == len(REPLACEMENTS)
        doc = _mutated(fixtures[name], path, None if delete else REPLACEMENTS[choice], delete)
        yield doc, rng.choice(COMMANDS[name]), (name, path, "delete" if delete else choice)


def test_every_mutated_fixture_ends_in_one_machine_block(tmp_path, capsys):
    workspace = tmp_path / "mutated.json"
    codes = set()
    for doc, argv, what in _mutations():
        workspace.write_text(json.dumps(doc))
        code = cli.main(argv[:1] + ["--workspace", str(workspace)] + argv[1:])
        captured = capsys.readouterr()
        block, *rest = captured.out.splitlines()
        result = json.loads(block)
        assert code == EXIT_OF_STATUS[result["status"]], (what, block)
        assert result["command"] == argv[0], what
        assert not any(line.startswith("{") for line in rest), what
        assert "Traceback" not in captured.err, what
        codes.add(code)
    # the corpus reaches bad input, negative verdicts and passes alike
    assert {0, 3, 4} <= codes, codes


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_unmutated_fixtures_answer_their_commands(capsys, name):
    path = str(resources.files("hopfva") / "fixtures" / name)
    for argv in COMMANDS[name]:
        code = cli.main(argv[:1] + ["--workspace", path] + argv[1:])
        block = capsys.readouterr().out.splitlines()[0]
        assert code in (0, 3), (argv, block)
