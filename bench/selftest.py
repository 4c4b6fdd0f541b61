"""Show that every answer check accepts hopfva's answer and rejects wrong ones.

    python3 bench/selftest.py

For each query of each workload (seed 1) the program's real answer must pass
its check.  Then the leaves of the answer (up to MAX_CHANGES of them, evenly
spaced) are changed one at a time: a flipped boolean, an integer plus one,
a changed coefficient or name, a list with its last element dropped.  The
check must reject at least one of these wrong answers, and must always reject
a changed kernel coefficient, a dropped group-like or a changed table
entry.  Finally the zero kernels that the large coeff-kernels queries take
from the Vandermonde argument are certified by modular rank.  Exits 1 on
any miss.
"""

from __future__ import annotations

import copy
import json
import os
import sys
import tempfile

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import oracle  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

MAX_CHANGES = 300  # per answer, evenly spaced over its leaves


def mutations(obj, path=()):
    """(path, description, mutated copy) for every leaf of a JSON answer."""
    if isinstance(obj, dict):
        for k, v in obj.items():
            yield from mutations(v, path + (k,))
        return
    if isinstance(obj, list):
        if obj:
            yield path, "drop last", obj[:-1]
        for i, v in enumerate(obj):
            yield from mutations(v, path + (i,))
        return
    if isinstance(obj, bool):
        yield path, "flip", not obj
    elif isinstance(obj, int):
        yield path, "+1", obj + 1
    elif isinstance(obj, str):
        if obj.startswith("zeta("):
            head, _, body = obj.partition(":[")
            first, _, rest = body.partition(",")
            q = oracle.parse_rational(first) + 1
            yield path, "coefficient", f"{head}:[{oracle.scalar_text(q)},{rest}"
        else:
            try:
                q = oracle.parse_rational(obj)
            except ValueError:
                yield path, "rename", obj + "x"
            else:
                yield path, "coefficient", oracle.scalar_text(q + 1)


def replaced(result, path, value):
    out = copy.deepcopy(result)
    node = out
    for key in path[:-1]:
        node = node[key]
    if path:
        node[path[-1]] = value
    else:
        out = value
    return out


def rejects(query, result):
    try:
        query.check(result)
    except (oracle.Mismatch, KeyError, TypeError, ValueError, IndexError):
        return True
    return False


def must_reject(path, how):
    """Mutations every check has to catch."""
    if path and path[0] == "basis" and how == "coefficient":
        return True                       # a changed kernel coefficient
    if path == ("elements",) and how == "drop last":
        return True                       # a dropped group-like
    return path[:1] == ("table",) and how == "+1" and len(path) == 3


def selftest():
    from hopfva import cli

    misses = 0
    with tempfile.TemporaryDirectory(dir=os.path.join(BENCH, "out")) as workdir:
        for build in workloads.WORKLOADS.values():
            _, queries = build(1, workdir)
            for q in queries:
                p = run.run_pass(cli, [q])
                if p.failures:
                    print(f"FAIL {q.label}: {p.failures}")
                    misses += 1
                    continue
                result = json.loads(p.blocks[0])["result"]
                caught = total = 0
                changes = list(mutations(result))
                step = max(1, len(changes) // MAX_CHANGES)
                for path, how, value in changes[::step]:
                    total += 1
                    hit = rejects(q, replaced(result, path, value))
                    caught += hit
                    if not hit and must_reject(path, how):
                        print(f"MISS {q.label}: {how} at {path} accepted")
                        misses += 1
                if caught == 0:
                    print(f"MISS {q.label}: no wrong answer rejected")
                    misses += 1
                print(f"ok   {caught:3d}/{total:<3d} wrong answers rejected: "
                      f"{' '.join(q.argv[:1] + q.argv[3:])}", flush=True)
    v = ["a"]
    workloads.check_z2(v, {"a": "a"}, 3, 16, 1)({"dim": 0, "basis": []})
    workloads.check_z2(v, {"a": "a"}, 2, 12, 2)({"dim": 0, "basis": []})
    workloads.check_pin(v, {"a": "a"}, 3, 3, 16)(
        {"arity": 3, "kernel_dim": 0, "injective": True})
    print("ok   Z2 (D=3, K=16, B=1 and D=2, K=12, B=2) and pi_3 (D=3, K=16) "
          "on x d/dx are injective mod p")
    return misses


def main():
    os.makedirs(os.path.join(BENCH, "out"), exist_ok=True)
    misses = selftest()
    print("all checks reject wrong answers" if not misses else f"{misses} misses")
    return 1 if misses else 0


if __name__ == "__main__":
    sys.exit(main())
