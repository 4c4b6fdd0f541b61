"""Workspace ingestion and the `hopfva` command-line front end.

Workspaces are JSON files declaring groups, Hopf algebras, backends, actions
and character tables; commands operate on named objects and emit a
deterministic machine block (one canonical-JSON line) followed by a short
human summary.  Exit statuses: 0 pass, 2 refusal, 3 verdict-fail, 4 input
error.  Identical inputs always produce byte-identical machine blocks.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass

from . import action as action_mod
from . import hopf as hopf_mod
from . import schurweyl as sw_mod
from . import vertexalg as va_mod
from .errors import (
    DuplicateName,
    HopfvaError,
    HypothesesNotMet,
    NotGroupAlgebra,
    ParseError,
    Refusal,
    ShapeMismatch,
    UnresolvedReference,
)
from .linalg import Matrix
from .scalars import scalar_from_text, scalar_to_text
from .vertexalg import Poly, poly_from_text, poly_to_text

SCHEMA_VERSION = 1

COMMANDS = (
    "verify-hopf", "cocommutative", "group-likes", "recognize-group-algebra",
    "verify-action", "pi2-kernel", "pin-check", "z2-kernel", "fixed-points",
    "annihilator", "inner-faithful", "quotient", "tensor-faithful",
    "thm-5-1", "thm-5-4", "decompose", "multiplicity", "commutant", "reach",
    "distinguish",
)


# ---------------------------------------------------------------------------
# workspace


@dataclass
class Caps:
    degree: int = None        # override for backend degree caps
    order: int = None         # coefficient order bound K
    laurent: int = 2          # B for Z2
    s_max: int = 3
    tensor_budget: int = 512
    mode_budget: int = 2
    conductor: int = 1
    arity: int = 3            # n for pin-check


class Workspace:
    """Named objects resolved lazily so cap overrides apply uniformly."""

    def __init__(self, defs, caps: Caps):
        self.defs = defs
        self.caps = caps
        self._cache = {}

    # -- resolution helpers

    def _lookup(self, section, name):
        try:
            return self.defs[section][name]
        except KeyError:
            raise UnresolvedReference(f"no {section[:-1]} named {name!r}") from None

    def group(self, name):
        key = ("groups", name)
        if key not in self._cache:
            d = self._lookup("groups", name)
            self._cache[key] = [list(r) for r in d["table"]]
        return self._cache[key]

    def hopf(self, name):
        key = ("hopf_algebras", name)
        if key in self._cache:
            return self._cache[key]
        d = self._lookup("hopf_algebras", name)
        builder = d.get("builder", "tensors")
        if builder == "sweedler":
            h = hopf_mod.sweedler()
        elif builder == "group_algebra":
            table = d["table"] if "table" in d else self.group(d["group"])
            h = hopf_mod.group_algebra(table, names=d.get("element_names"))
        elif builder == "dual":
            h = hopf_mod.dual_hopf(self.hopf(d["of"]))
        elif builder == "tensors":
            h = self._hopf_from_tensors(d)
        else:
            raise ParseError(f"unknown Hopf builder {builder!r}")
        self._cache[key] = h
        return h

    def _hopf_from_tensors(self, d):
        dim = d["dim"]
        names = d.get("basis", [f"b{i}" for i in range(dim)])
        for field in ("mul", "comul", "antipode"):
            for entry in d[field]:
                if any(not (isinstance(i, int) and 0 <= i < dim) for i in entry[:-1]):
                    raise ShapeMismatch(f"{field} entry {entry} has an index outside "
                                        f"0..{dim - 1}")
        for field in ("unit", "counit"):
            if len(d[field]) != dim:
                raise ShapeMismatch(f"{field} has {len(d[field])} entries for "
                                    f"dimension {dim}")
        zero = scalar_from_text("0")
        mul = [[[zero] * dim for _ in range(dim)] for _ in range(dim)]
        for i, j, k, s in d["mul"]:
            mul[i][j][k] = scalar_from_text(s)
        comul = [[zero] * (dim * dim) for _ in range(dim)]
        for k, i, j, s in d["comul"]:
            comul[k][i * dim + j] = scalar_from_text(s)
        counit = [scalar_from_text(s) for s in d["counit"]]
        unit = [scalar_from_text(s) for s in d["unit"]]
        anti = [[zero] * dim for _ in range(dim)]
        for i, j, s in d["antipode"]:
            anti[i][j] = scalar_from_text(s)
        return hopf_mod.FinHopfAlgebra(
            dim, names, mul, unit, comul, counit, Matrix.from_rows(anti),
            group_like_basis=d.get("group_like_basis"),
            verify=d.get("verify", True))

    def backend(self, name):
        key = ("backends", name)
        if key in self._cache:
            return self._cache[key]
        d = self._lookup("backends", name)
        cap = self.caps.degree if self.caps.degree is not None else d["degree_cap"]
        variables = list(d["variables"])
        images = {v: poly_from_text(t, variables)
                  for v, t in d["derivation"].items()}
        for v in variables:
            images.setdefault(v, Poly.zero(len(variables)))
        b = va_mod.CommDiffVA(variables, images, cap)
        self._cache[key] = b
        return b

    def action(self, name):
        key = ("actions", name)
        if key in self._cache:
            return self._cache[key]
        d = self._lookup("actions", name)
        h = self.hopf(d["hopf"])
        backend = self.backend(d["backend"])
        if "generator_images" in d:
            images = {}
            for bname, per_var in d["generator_images"].items():
                images[bname] = {v: poly_from_text(t, list(backend.variables))
                                 for v, t in per_var.items()}
            act = action_mod.HopfAction.from_generator_images(h, backend, images)
        elif "matrices" in d:
            if self.caps.degree is not None:
                raise ParseError(
                    f"action {name!r} has explicit matrices; --cap-d cannot re-cap it")
            n = len(backend.monomials())
            mats = []
            for bname in h.names:
                rows = [[scalar_from_text(c) for c in row] for row in d["matrices"][bname]]
                if len(rows) != n or any(len(row) != n for row in rows):
                    widths = sorted({len(row) for row in rows}) or [0]
                    shape = f"{len(rows)}x{'/'.join(map(str, widths))}"
                    raise ShapeMismatch(
                        f"action {name!r}: the matrix of {bname} is {shape}, but the "
                        f"carrier has {n} monomials")
                mats.append(Matrix.from_rows(rows))
            act = action_mod.HopfAction(h, backend, mats)
        else:
            raise ParseError(f"action {name!r} needs generator_images or matrices")
        self._cache[key] = act
        return act

    def chartable(self, name):
        key = ("character_tables", name)
        if key in self._cache:
            return self._cache[key]
        d = self._lookup("character_tables", name)
        # index elements as the group algebra of this group does
        order, table = hopf_mod.relabel_identity_first(self.group(d["group"]))
        pos = {old: new for new, old in enumerate(order)}
        classes = [[pos.get(g, g) for g in c] for c in d["classes"]]
        chars = []
        for ch in d["characters"]:
            mats = None
            if "matrices" in ch:
                if len(ch["matrices"]) != len(order):
                    raise ParseError(f"character {ch['name']!r} needs one matrix "
                                     f"per group element")
                mats = tuple(Matrix.from_rows(
                    [[scalar_from_text(c) for c in row] for row in ch["matrices"][old]])
                    for old in order)
            chars.append(sw_mod.IrrepCharacter(
                name=ch["name"], degree=ch["degree"],
                values=tuple(scalar_from_text(v) for v in ch["values"]),
                matrices=mats))
        t = sw_mod.CharacterTable(table, classes, chars)
        self._cache[key] = t
        return t


def load(paths, caps: Caps = None) -> Workspace:
    """Parse and merge workspace files; duplicate names are rejected."""
    sections = ("groups", "hopf_algebras", "backends", "actions",
                "character_tables")
    defs = {s: {} for s in sections}
    for path in paths:
        try:
            with open(path) as fh:
                data = json.load(fh)
        except OSError as exc:
            raise ParseError(f"{path}: {exc}") from None
        except json.JSONDecodeError as exc:
            raise ParseError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from None
        if data.get("schema_version") != SCHEMA_VERSION:
            raise ParseError(f"{path}: schema_version must be {SCHEMA_VERSION}")
        for section in sections:
            for entry in data.get(section, []):
                name = entry.get("name")
                if not name:
                    raise ParseError(f"{path}: {section} entry without a name")
                if name in defs[section]:
                    raise DuplicateName(f"{section}: {name!r} defined twice")
                defs[section][name] = entry
    return Workspace(defs, caps or Caps())


# ---------------------------------------------------------------------------
# serialisation helpers


def _subspace_json(sub, labels=None):
    out = {"ambient": sub.ambient, "dim": sub.dim,
           "basis": [[scalar_to_text(c) for c in row] for row in sub.basis]}
    if labels is not None:
        out["coordinates"] = list(labels)
    return out


def _report_json(report):
    return {k: {"ok": ok, "witness": w} for k, (ok, w) in report.items()}


def _report_outcome(key, report, label=""):
    """(status, result, human lines) of a command whose verdict is one report."""
    return ("pass" if report.passed else "fail"), {key: _report_json(report)}, \
        [f"{label}{k}: {'ok' if ok else 'FAIL at ' + str(w)}" for k, (ok, w) in report.items()]


def _pair_entries(vec, monos, variables):
    n = len(monos)
    out = []
    for t, c in enumerate(vec):
        if c != 0:
            i, j = divmod(t, n)
            out.append([_mono_text(monos[i], variables),
                        _mono_text(monos[j], variables), scalar_to_text(c)])
    return out


def _mono_text(e, variables):
    return poly_to_text(Poly.monomial(e), list(variables))


# ---------------------------------------------------------------------------
# command dispatch


def run(ws: Workspace, command, obj=None, characters=None, irrep=None,
        irrep2=None, seed=None):
    """Execute one command; returns (status, result dict, human lines)."""
    caps = ws.caps
    if command == "verify-hopf":
        return _report_outcome("axioms", hopf_mod.verify_hopf_axioms(ws.hopf(obj)), "axiom ")

    if command == "cocommutative":
        ok, witness = hopf_mod.is_cocommutative(ws.hopf(obj))
        return ("pass" if ok else "fail"), \
            {"cocommutative": ok, "witness": witness}, \
            [f"cocommutative: {ok}" + (f" (witness {witness})" if witness else "")]

    if command == "group-likes":
        likes = hopf_mod.group_likes(ws.hopf(obj), conductor=caps.conductor)
        elems = [[scalar_to_text(c) for c in g] for g in likes]
        return "pass", {"count": len(likes), "elements": elems}, \
            [f"{len(likes)} group-like element(s)"]

    if command == "recognize-group-algebra":
        h = ws.hopf(obj)
        try:
            rec = hopf_mod.recognize_group_algebra(h, conductor=caps.conductor)
        except NotGroupAlgebra as exc:
            return "fail", {"group_algebra": False, "reason": str(exc)}, \
                [f"not a group algebra: {exc}"]
        return "pass", {"group_algebra": True,
                        "table": [list(r) for r in rec.table]}, \
            [f"group algebra of order {len(rec.table)}"]

    if command == "verify-action":
        report = action_mod.verify_module_vertex_algebra(
            ws.action(obj), order=caps.order)
        return _report_outcome("checks", report, "check ")

    if command == "pi2-kernel":
        backend = ws.backend(obj)
        res = va_mod.pi2_kernel(backend, order=caps.order)
        basis = [_pair_entries(v, res.monomials, backend.variables)
                 for v in res.kernel.basis]
        return "pass", {"dim": res.kernel.dim, "stabilized": res.stabilized,
                        "order": res.order, "basis": basis}, \
            [f"pi2 kernel dimension {res.kernel.dim} "
             f"({'stabilized' if res.stabilized else 'NOT stabilized'})"]

    if command == "pin-check":
        backend = ws.backend(obj)
        res = va_mod.pin_injectivity_check(backend, caps.arity, order=caps.order)
        status = "pass" if res.injective else "fail"
        return status, {"injective": res.injective, "arity": res.arity,
                        "kernel_dim": res.kernel.dim}, \
            [f"pi_{res.arity} injective: {res.injective}"]

    if command == "z2-kernel":
        backend = ws.backend(obj)
        res = va_mod.z2_kernel(backend, order=caps.order,
                               laurent_bound=caps.laurent)
        entries = []
        n = len(res.monomials)
        w = 2 * res.laurent_bound + 1
        for vec in res.kernel.basis:
            items = []
            for t, c in enumerate(vec):
                if c != 0:
                    rest, bb = divmod(t, w)
                    rest, aa = divmod(rest, w)
                    i, j = divmod(rest, n)
                    items.append([_mono_text(res.monomials[i], backend.variables),
                                  _mono_text(res.monomials[j], backend.variables),
                                  aa - res.laurent_bound, bb - res.laurent_bound,
                                  scalar_to_text(c)])
            entries.append(items)
        return "pass", {"dim": res.kernel.dim, "basis": entries}, \
            [f"Z2 kernel dimension {res.kernel.dim}"]

    if command == "fixed-points":
        act = ws.action(obj)
        fixed, closure = action_mod.fixed_subspace(act)
        polys = [poly_to_text(act.backend.poly_from_coords(list(v)),
                              act.backend.variables) for v in fixed.basis]
        return "pass", {"dim": fixed.dim, "basis": polys,
                        "closure": _report_json(closure)}, \
            [f"fixed subspace dimension {fixed.dim}"] + \
            [f"  {p}" for p in polys]

    if command == "annihilator":
        act = ws.action(obj)
        res = action_mod.action_annihilator(act)
        return "pass", {"dim": res.kernel.dim, "stabilized": res.stabilized,
                        "basis": [[scalar_to_text(c) for c in v]
                                  for v in res.kernel.basis]}, \
            [f"annihilator dimension {res.kernel.dim} "
             f"({'stabilized' if res.stabilized else 'NOT stabilized'})"]

    if command == "inner-faithful":
        ok = action_mod.is_inner_faithful(ws.action(obj))
        return ("pass" if ok else "fail"), {"inner_faithful": ok}, \
            [f"inner faithful: {ok}"]

    if command == "quotient":
        out = action_mod.inner_faithful_quotient(ws.action(obj))
        return "pass", {"quotient_dim": out.quotient.hopf.dim,
                        "ideal_dim": out.quotient.ideal.dim,
                        "fixed_preserved": out.fixed_preserved,
                        "quotient_basis": list(out.quotient.hopf.names)}, \
            [f"quotient dimension {out.quotient.hopf.dim}; "
             f"fixed points preserved: {out.fixed_preserved}"]

    if command == "tensor-faithful":
        res = action_mod.tensor_power_faithfulness(
            ws.action(obj), caps.s_max, budget=caps.tensor_budget)
        return "pass", {"table": res.table, "s0": res.stabilization_index}, \
            [f"annihilator dims per tensor power: {res.table}; "
             f"s0 = {res.stabilization_index}"]

    if command == "thm-5-1":
        verdict = action_mod.check_thm_group_algebra(
            ws.action(obj), pi2_order=caps.order, conductor=caps.conductor)
        status = "pass" if verdict.status == "PASS" else "fail"
        return status, {"verdict": verdict.status, "detail": verdict.detail}, \
            [f"group-algebra conclusion checker: {verdict.status} ({verdict.detail})"]

    if command == "thm-5-4":
        verdict = action_mod.check_thm_kernel_bialgebra_ideal(
            ws.action(obj), pi2_order=caps.order)
        if verdict.status == "PASS":
            status = "pass"
        elif verdict.status == "hypothesis-not-established":
            status = "refused"
        else:
            status = "fail"
        return status, {"verdict": verdict.status, "detail": verdict.detail}, \
            [f"kernel-is-Hopf-ideal checker: {verdict.status} ({verdict.detail})"]

    if command == "decompose":
        act = ws.action(obj)
        rep = sw_mod.FinGroupRep.from_hopf_action(act)
        table = ws.chartable(characters)
        decomp = sw_mod.decompose(table, rep)
        mults = {name: list(m) for name, m in sorted(decomp.multiplicities.items())}
        iso_dims = {name: decomp.isotype_full(name).dim
                    for name in sorted(decomp.multiplicities)}
        return "pass", {"multiplicities": mults, "isotype_dims": iso_dims}, \
            [f"{name}: multiplicities {m}" for name, m in mults.items()]

    if command == "multiplicity":
        act = ws.action(obj)
        rep = sw_mod.FinGroupRep.from_hopf_action(act)
        spaces = sw_mod.multiplicity_space(ws.chartable(characters), rep, irrep)
        dims = [len(s) for s in spaces]
        return "pass", {"irrep": irrep, "dims_per_degree": dims}, \
            [f"multiplicity space dims per degree: {dims}"]

    if command == "commutant":
        act = ws.action(obj)
        rep = sw_mod.FinGroupRep.from_hopf_action(act)
        samples = [act.backend.poly_from_coords(list(v))
                   for v in rep.fixed_points().basis]
        return _report_outcome("checks", sw_mod.check_commutant(rep, samples, caps.mode_budget))

    if command == "reach":
        act = ws.action(obj)
        rep = sw_mod.FinGroupRep.from_hopf_action(act)
        seed_poly = poly_from_text(seed, list(act.backend.variables))
        res = sw_mod.cyclic_reachability(rep, ws.chartable(characters), irrep,
                                         seed_poly, caps.mode_budget)
        return "pass", {"reachable_dim": res.reachable.dim,
                        "isotype_dim": res.isotype.dim,
                        "fills_isotype": res.fills_isotype}, \
            [f"reachable {res.reachable.dim} of {res.isotype.dim}; "
             f"fills isotype: {res.fills_isotype}"]

    if command == "distinguish":
        act = ws.action(obj)
        rep = sw_mod.FinGroupRep.from_hopf_action(act)
        decomp = sw_mod.decompose(ws.chartable(characters), rep)
        verdict = sw_mod.distinguish_isotypes(decomp, irrep, irrep2,
                                              mode_order=caps.mode_budget)
        status = "pass" if verdict.kind != "inconclusive" else "fail"
        return status, {"verdict": verdict.kind, "detail": verdict.detail}, \
            [f"distinguished-by: {verdict.kind}"]

    raise ParseError(f"unknown command {command!r}")


# ---------------------------------------------------------------------------
# entry point

_EXIT = {"pass": 0, "refused": 2, "fail": 3, "error": 4}


def _machine_block(command, obj, status, result):
    doc = {"schema_version": SCHEMA_VERSION, "command": command,
           "object": obj, "status": status, "result": result}
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        # usage problems are input errors (exit 4), not refusals
        self.print_usage(sys.stderr)
        self.exit(4, f"{self.prog}: error: {message}\n")


def build_parser():
    p = _Parser(
        prog="hopfva",
        description="Exact checks for Hopf actions on commutative vertex algebras")
    p.add_argument("command", choices=COMMANDS)
    p.add_argument("--workspace", nargs="+", required=True, metavar="FILE")
    p.add_argument("--object", help="name of the object the command acts on")
    p.add_argument("--characters", help="character table name (schur-weyl commands)")
    p.add_argument("--irrep", help="irreducible name")
    p.add_argument("--irrep2", help="second irreducible name (distinguish)")
    p.add_argument("--seed", help="seed polynomial (reach)")
    p.add_argument("--cap-d", type=int, dest="cap_d")
    p.add_argument("--order-k", type=int, dest="order_k")
    p.add_argument("--laurent-b", type=int, dest="laurent_b", default=2)
    p.add_argument("--arity-n", type=int, dest="arity_n", default=3)
    p.add_argument("--s-max", type=int, dest="s_max", default=3)
    p.add_argument("--tensor-budget", type=int, dest="tensor_budget", default=512)
    p.add_argument("--mode-budget", type=int, dest="mode_budget", default=2)
    p.add_argument("--conductor", type=int, default=1)
    p.add_argument("--json-only", action="store_true")
    return p


# smallest accepted value of each numeric option
_MINIMA = {"cap_d": 0, "order_k": 0, "laurent_b": 0, "s_max": 0,
           "tensor_budget": 0, "mode_budget": 0, "conductor": 1, "arity_n": 2}


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    for dest, least in _MINIMA.items():
        value = getattr(args, dest)
        if value is not None and value < least:
            parser.error(f"--{dest.replace('_', '-')} must be at least {least}, got {value}")
    caps = Caps(degree=args.cap_d, order=args.order_k, laurent=args.laurent_b,
                s_max=args.s_max, tensor_budget=args.tensor_budget,
                mode_budget=args.mode_budget, conductor=args.conductor,
                arity=args.arity_n)
    try:
        ws = load(args.workspace, caps)
        status, result, human = run(
            ws, args.command, obj=args.object, characters=args.characters,
            irrep=args.irrep, irrep2=args.irrep2, seed=args.seed)
    except HypothesesNotMet as exc:
        status, result = "refused", {"refusal": "hypotheses-not-met",
                                     "failed": exc.failed}
        human = [f"refused: hypotheses not met ({', '.join(exc.failed)})"]
    except Refusal as exc:
        status, result = "refused", {"refusal": type(exc).__name__,
                                     "message": str(exc)}
        human = [f"refused: {exc}"]
    except (HopfvaError, ValueError, AssertionError, KeyError) as exc:
        status, result = "error", {"error": type(exc).__name__,
                                   "message": str(exc)}
        human = [f"error: {exc}"]
    print(_machine_block(args.command, args.object, status, result))
    if not args.json_only:
        print("---")
        for line in human:
            print(line)
    return _EXIT[status]


if __name__ == "__main__":
    sys.exit(main())
