"""hopfva benchmark: one workload, one seed, one JSON result line.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs from the root of a source checkout; `src` is put on the import path,
nothing is installed.  Each query is one `hopfva` command called in-process
through `hopfva.cli.main(argv)` on a workspace generated from the seed.

  1. set-up: cold starts of one trivial command in fresh interpreters;
  2. warm-up pass over the query list, every answer checked independently;
  3. --trace 0: whole timed passes until --seconds have elapsed (at least
     one); each answer must be byte-identical to the checked one;
     --trace 1: one timed pass without tracing, then one traced pass; the
     difference of their summed query times is the tracing overhead.

Every timed command sits between two runs of a fixed stdlib reference loop,
and its time is reported in reference seconds: wall time divided by the
mean of the two reference times, times REFERENCE_S.  The host's core speed
changes by up to 2x within seconds; the reference run next to a command sees
the same speed, so the ratio keeps what the command itself costs.

The last line of standard output is the result object.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from fractions import Fraction

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(BENCH, "out")
sys.path.insert(0, BENCH)

import oracle  # noqa: E402
import workloads  # noqa: E402

SETUP_STARTS = 15
REFERENCE_ITERATIONS = 1000
# the reference loop's median time on the 2-vCPU 2.1 GHz Xeon host the
# benchmark was calibrated on, so that reported times stay near wall times
REFERENCE_S = 0.004
EXIT_OF_STATUS = {"pass": 0, "refused": 2, "fail": 3, "error": 4}


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def reference_time():
    """Wall time of a fixed loop of Fraction additions (stdlib only)."""
    t0 = time.perf_counter()
    s = Fraction(0)
    for i in range(1, REFERENCE_ITERATIONS):
        s += Fraction(1, i % 97 + 1)
    return time.perf_counter() - t0


def in_reference_s(dt, ref_before, ref_after):
    return dt / ((ref_before + ref_after) / 2) * REFERENCE_S


def measure_setup(workspace):
    """Median time of fresh-interpreter runs of one trivial command."""
    env = dict(os.environ, PYTHONPATH=SRC)
    argv = [sys.executable, "-m", "hopfva.cli", workloads.SETUP_ARGV[0],
            "--workspace", workspace] + workloads.SETUP_ARGV[1:]
    times = []
    ref = reference_time()
    for i in range(SETUP_STARTS + 1):
        t0 = time.perf_counter()
        proc = subprocess.run(argv, env=env, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, timeout=60)
        dt = time.perf_counter() - t0
        if proc.returncode != 0:
            raise RuntimeError(f"set-up command failed: {proc.stderr.decode()[-400:]}")
        ref, before = reference_time(), ref
        if i:  # the first start also compiles bytecode
            times.append(in_reference_s(dt, before, ref))
    return statistics.median(times)


class Pass:
    """One pass over the query list: per-query times (in reference seconds),
    blocks and failures."""

    def __init__(self, n):
        self.times = [0.0] * n
        self.blocks = [None] * n
        self.codes = [None] * n
        self.failures = []
        self.wall = 0.0


def run_pass(cli, queries, reference=None):
    """Run every query once.  Without a reference, check each answer against
    the oracle; with one, require byte-identical machine blocks."""
    p = Pass(len(queries))
    clock = time.perf_counter
    start = clock()
    ref = reference_time()
    for i, q in enumerate(queries):
        buf = io.StringIO()
        raised = False
        t0 = clock()
        try:
            with contextlib.redirect_stdout(buf):
                code = cli.main(q.argv)
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # a traceback is a failed query, not a crash
            p.failures.append((i, "raised", f"{type(exc).__name__}: {exc}"))
            raised = True
        dt = clock() - t0
        ref, before = reference_time(), ref
        p.times[i] = in_reference_s(dt, before, ref)
        if not raised:
            p.codes[i] = code
            p.blocks[i] = buf.getvalue().split("\n", 1)[0]
    p.wall = clock() - start
    for i, q in enumerate(queries):
        if p.blocks[i] is None:
            continue
        failure = judge(q, p.blocks[i], p.codes[i], reference[i] if reference else None)
        if failure:
            p.failures.append((i,) + failure)
    return p


def judge(query, block, code, reference):
    """Return (kind, reason) when the query failed, else None.  Kinds:
    "no-block", "exit" (unexpected status) and "wrong" (the answer disagrees
    with the check, or with the checked run's block)."""
    if code != query.exit_code:
        return "exit", f"exit status {code}, expected {query.exit_code}: {block[:200]}"
    if reference is not None:
        if block == reference:
            return None
        return "wrong", "machine block differs from the checked pass"
    try:
        doc = json.loads(block)
    except ValueError:
        doc = None
    if not isinstance(doc, dict) or "result" not in doc:
        return "no-block", "no machine block"
    if EXIT_OF_STATUS.get(doc.get("status")) != code:
        return "exit", f"status {doc.get('status')!r} disagrees with exit status {code}"
    try:
        query.check(doc["result"])
    except oracle.Mismatch as exc:
        return "wrong", str(exc)
    except (KeyError, TypeError, ValueError) as exc:
        return "wrong", f"malformed answer: {type(exc).__name__}: {exc}"
    return None


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "hopfva", "cli.py")):
        log(f"no hopfva sources under {SRC}; run from the root of a checkout")
        return 2
    sys.path.insert(0, SRC)
    if hasattr(os, "sched_setaffinity"):
        # the reference loop and the timed work, set-up children included,
        # must run on the same core to see the same speed
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    os.makedirs(OUT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=OUT)
    try:
        return measure(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure(args, workdir):
    workspace, queries = workloads.WORKLOADS[args.workload](args.seed, workdir)
    log(f"{args.workload} seed {args.seed}: {len(queries)} queries")
    setup_s = measure_setup(workspace)

    from hopfva import cli  # the first in-process import is part of the warm-up

    passes = [run_pass(cli, queries)]
    reference = passes[0].blocks
    log(f"warm-up and check: {passes[0].wall:.2f} s")
    # a user's command starts with an empty heap; keep the harness's own
    # objects (workspace, queries, check caches) out of the collector's scans
    gc.collect()
    gc.freeze()
    timed = []
    if args.trace:
        import spans
        timed.append(run_pass(cli, queries, reference))
        tracer = spans.Tracer()
        tracer.install()
        try:
            traced = run_pass(cli, queries, reference)
        finally:
            tracer.uninstall()
        passes += [timed[0], traced]
    else:
        elapsed = 0.0
        while not timed or elapsed < args.seconds:
            timed.append(run_pass(cli, queries, reference))
            elapsed += timed[-1].wall
        passes += timed
    for p in passes:
        for i, kind, why in p.failures:
            log(f"FAILED ({kind}) {queries[i].label}: {why}")

    attempted = len(queries) * len(passes)
    failed = sum(len(p.failures) for p in passes)
    wrong = any(kind == "wrong" for p in passes for _, kind, _ in p.failures)
    per_query = [statistics.median(p.times[i] for p in timed) for i in range(len(queries))]
    batch = sum(per_query)
    if args.trace:
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in tracer.metrics().items()}
        metrics["trace.overhead_s"] = {"value": sum(traced.times) - batch, "unit": "s"}
        with open(os.path.join(OUT, f"trace-{args.workload}-{args.seed}.json"), "w") as fh:
            json.dump({"workload": args.workload, "seed": args.seed,
                       "untraced_batch_s": batch, "traced_batch_s": sum(traced.times),
                       **tracer.report()}, fh, indent=1, sort_keys=True)
    else:
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "batch_s": {"value": batch, "unit": "s"},
            "max_query_s": {"value": max(per_query), "unit": "s"},
            # interpolated, so that the value does not jump between two
            # queries of similar cost
            "query_p50_s": {"value": statistics.median(per_query), "unit": "s"},
            "query_p90_s": {"value": statistics.quantiles(per_query, n=10,
                                                          method="inclusive")[8],
                            "unit": "s"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                            "unit": "MB"},
        }
    log(f"timed passes: {len(timed)}, batch {batch:.3f} s, failed {failed}/{attempted}")
    print(json.dumps({"correct": not wrong, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
