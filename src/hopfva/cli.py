"""Workspace ingestion and the `hopfva` command-line front end.

Workspaces are JSON files declaring groups, Hopf algebras, backends, actions
and character tables; commands operate on named objects and emit a
deterministic machine block (one canonical-JSON line) followed by a short
human summary.  Exit statuses: 0 pass, 2 refusal, 3 verdict-fail, 4 input
error.  Identical inputs always produce byte-identical machine blocks.

A cold start imports `hopf` (with `linalg`, `scalars` and `errors`) and
binds `vertexalg`, `action` and `schurweyl` lazily: each executes on the
first command that reads it, so the Hopf commands load no other layer.
"""

from __future__ import annotations

import argparse
import functools
import importlib.util
import json
import re
import sys
from collections import namedtuple

from . import hopf as hopf_mod
from .errors import (
    DuplicateName,
    HopfvaError,
    HypothesesNotMet,
    NotGroupAlgebra,
    NotHopfAlgebra,
    ParseError,
    Refusal,
    ShapeMismatch,
    UnresolvedReference,
)
from .scalars import scalar_from_text, scalar_to_text


def _lazy(name):
    """The layer `hopfva.<name>`, executed on its first attribute read."""
    fullname = f"{__package__}.{name}"
    if fullname not in sys.modules:
        spec = importlib.util.find_spec(fullname)
        spec.loader = importlib.util.LazyLoader(spec.loader)
        module = importlib.util.module_from_spec(spec)
        sys.modules[fullname] = module
        spec.loader.exec_module(module)
        setattr(sys.modules[__package__], name, module)
    return sys.modules[fullname]


va_mod, action_mod, sw_mod = _lazy("vertexalg"), _lazy("action"), _lazy("schurweyl")

SCHEMA_VERSION = 1
# a backend variable: an identifier that polynomial text cannot read as a
# number, an operator or a cyclotomic scalar
VARIABLE_RE = re.compile(r"(?!zeta)[A-Za-z_][A-Za-z0-9_]*")


# ---------------------------------------------------------------------------
# numeric options


# each numeric flag, in --help order: the Caps field it sets, its default
# and its smallest accepted value
_Option = namedtuple("_Option", "field default least")
OPTIONS = {
    "--cap-d": _Option("degree", None, 0),     # override for backend degree caps
    "--order-k": _Option("order", None, 0),    # coefficient order bound K
    "--laurent-b": _Option("laurent", 2, 0),   # B for Z2
    "--arity-n": _Option("arity", 3, 2),       # n for pin-check
    "--s-max": _Option("s_max", 3, 0),
    "--tensor-budget": _Option("tensor_budget", 512, 0),
    "--mode-budget": _Option("mode_budget", 2, 0),
    "--conductor": _Option("conductor", 1, 1),
}

Caps = namedtuple("Caps", [o.field for o in OPTIONS.values()],
                  defaults=[o.default for o in OPTIONS.values()])


def _scalar(text, what):
    """The scalar written as `text`; a ParseError naming `what` if it is not one."""
    if not isinstance(text, str):
        raise ParseError(f"{what}: a scalar must be a string such as \"1/2\", got {text!r}")
    try:
        return scalar_from_text(text)
    except ValueError as exc:
        raise ParseError(f"{what}: {exc}") from None


def _poly(text, variables, what):
    """The polynomial written as `text`; a ParseError naming `what` if it is not one."""
    if not isinstance(text, str):
        raise ParseError(f"{what}: a polynomial must be a string such as \"x^2\", got {text!r}")
    try:
        return va_mod.poly_from_text(text, variables)
    except ValueError as exc:
        raise ParseError(f"{what}: {exc}") from None


def _reference(ws, section, d, field, owner):
    """The object of `section` named by `d[field]`; a ParseError naming
    `owner` and the field if that is missing or not a string."""
    ref = _field(d, field, owner)
    if not isinstance(ref, str):
        raise ParseError(f"{owner}: {field} must name a {section[:-1]}, got {ref!r}")
    return ws.get(section, ref)


def _field(d, field, owner):
    """`d[field]`; a ParseError naming `owner` and the field if it is missing."""
    if field not in d:
        raise ParseError(f"{owner}: needs the field {field!r}")
    return d[field]


def _names(value, n, what):
    """`value` if it is a list of names, of `n` of them unless `n` is None;
    a ParseError naming `what` if not."""
    if not (isinstance(value, list) and all(isinstance(v, str) for v in value)
            and n in (None, len(value))):
        count = "" if n is None else f" {n}"
        raise ParseError(f"{what} must be a list of{count} names, got {value!r}")
    return value


def _group_table(value, what):
    """`value` if it is a list of rows of element indices; a ParseError
    naming `what` if not.  The group axioms are checked where it is used."""
    if not (isinstance(value, list) and all(
            isinstance(row, list) and all(isinstance(x, int) and not isinstance(x, bool)
                                          for x in row) for row in value)):
        raise ParseError(f"{what} must be a list of rows of element indices, got {value!r}")
    return value


def _of_type(value, kind, what, noun):
    """`value` if it is a `kind` (list or dict); a ParseError saying that
    `what` must be `noun` if not."""
    if not isinstance(value, kind):
        raise ParseError(f"{what} must be {noun}, got {value!r}")
    return value


def _basis_map(value, h, what):
    """`value` if it is an object keyed by basis elements of `h`; a
    ParseError naming `what` if not."""
    _of_type(value, dict, what, "an object keyed by basis elements")
    for key in value:
        if key not in h.names:
            raise ParseError(f"{what} names {key!r}, which is not a basis element "
                             f"of the Hopf algebra {list(h.names)}")
    return value


def _matrix_rows(value, what):
    """The rows of scalars of a matrix written as a list of rows of scalar
    strings; a ParseError naming `what` if it is not one."""
    return [[_scalar(c, what) for c in _of_type(row, list, what, "a list of rows of scalars")]
            for row in _of_type(value, list, what, "a list of rows of scalars")]


def _integer(value, least, what):
    """`value` if it is an int of at least `least`; a ParseError naming `what` if not."""
    if not isinstance(value, int) or isinstance(value, bool) or value < least:
        raise ParseError(f"{what} must be an integer of at least {least}, got {value!r}")
    return value


# ---------------------------------------------------------------------------
# workspace sections: one builder each, (workspace, name, definition) -> object


# the fields each Hopf builder reads besides name and builder; any other is an input error
HOPF_FIELDS = {
    "sweedler": (), "dual": ("of",), "group_algebra": ("table", "group", "element_names"),
    "tensors": ("dim", "basis", "mul", "comul", "unit", "counit", "antipode")}


def _hopf(ws, name, d):
    """The Hopf algebra `name`.  The builders of `hopf` make Hopf algebras by
    construction; structure constants entered as `tensors` are checked
    against the Hopf axioms here, once, unless they are the workspace's
    `unchecked` object."""
    what = f"Hopf algebra {name!r}"
    builder = d.get("builder", "tensors")
    if not isinstance(builder, str) or builder not in HOPF_FIELDS:
        raise ParseError(f"unknown Hopf builder {builder!r}")
    for field in d:
        if field not in ("name", "builder", *HOPF_FIELDS[builder]):
            raise ParseError(f"{what}: the {builder} builder reads no field {field!r}")
    if builder == "sweedler":
        return hopf_mod.sweedler()
    if builder == "group_algebra":
        table = _group_table(d["table"], f"{what}: table") if "table" in d else \
            _reference(ws, "groups", d, "group", what)
        names = d.get("element_names")
        if names is not None:
            _names(names, len(table), f"{what}: element_names")
        return hopf_mod.group_algebra(table, names=names)
    if builder == "dual":
        return hopf_mod.dual_hopf(_reference(ws, "hopf_algebras", d, "of", what))
    h = _hopf_from_tensors(what, d)
    if name != ws.unchecked:
        for axiom, (ok, witness) in hopf_mod.verify_hopf_axioms(h).items():
            if not ok:
                raise NotHopfAlgebra(f"{what} fails the Hopf axiom {axiom} at {witness}")
    return h


def _hopf_from_tensors(what, d):
    """The structure constants of a `tensors` entry, not checked against the
    Hopf axioms; a ParseError or ShapeMismatch naming what is malformed."""
    dim = _integer(_field(d, "dim", what), 0, f"{what}: dim")
    names = _names(d.get("basis", [f"b{i}" for i in range(dim)]), None, f"{what}: basis")

    def entries(field, width):
        value = _of_type(_field(d, field, what), list, f"{what}: {field}", "a list of entries")
        out = []
        for pos, entry in enumerate(value):
            if not (isinstance(entry, list) and len(entry) == width):
                raise ParseError(f"{what}: {field} entry {pos} must be a list of "
                                 f"{width - 1} indices and a scalar, got {entry!r}")
            if any(not (isinstance(i, int) and 0 <= i < dim) for i in entry[:-1]):
                raise ShapeMismatch(f"{field} entry {entry} has an index outside "
                                    f"0..{dim - 1}")
            out.append((*entry[:-1], _scalar(entry[-1], f"{what}: {field}")))
        return out

    def vector(field):
        value = _of_type(_field(d, field, what), list, f"{what}: {field}",
                         f"a list of {dim} scalars")
        if len(value) != dim:
            raise ShapeMismatch(f"{field} has {len(value)} entries for dimension {dim}")
        return [_scalar(s, f"{what}: {field}") for s in value]

    mul, comul, antipode = entries("mul", 4), entries("comul", 4), entries("antipode", 3)
    return hopf_mod.FinHopfAlgebra(dim, names, mul, vector("unit"), comul, vector("counit"),
                                   antipode)


def _backend(ws, name, d):
    what = f"backend {name!r}"
    cap = ws.caps.degree
    if cap is None:
        cap = _integer(_field(d, "degree_cap", what), OPTIONS["--cap-d"].least,
                       f"{what}: degree_cap")
    variables, derivation = _field(d, "variables", what), _field(d, "derivation", what)
    if not (isinstance(variables, list) and all(isinstance(v, str) for v in variables)
            and len(set(variables)) == len(variables)):
        raise ParseError(f"{what}: variables must be a list of distinct names, "
                         f"got {variables!r}")
    for v in variables:
        if not VARIABLE_RE.fullmatch(v):
            raise ParseError(f"{what}: variable {v!r} must match "
                             f"[A-Za-z_][A-Za-z0-9_]* and not start with zeta")
    if not (isinstance(derivation, dict) and set(derivation) <= set(variables)):
        raise ParseError(f"{what}: derivation must map some of the variables "
                         f"{variables} to polynomials, got {derivation!r}")
    images = {v: _poly(derivation.get(v, "0"), variables, f"{what}: derivation of {v}")
              for v in variables}
    return va_mod.CommDiffVA(variables, images, cap)


def _action(ws, name, d):
    what = f"action {name!r}"
    h = _reference(ws, "hopf_algebras", d, "hopf", what)
    backend = _reference(ws, "backends", d, "backend", what)
    variables = list(backend.variables)
    if "generator_images" in d:
        images = {}
        for bname, per_var in _basis_map(d["generator_images"], h,
                                         f"{what}: generator_images").items():
            field = f"{what}: generator_images of {bname}"
            if set(_of_type(per_var, dict, field, "an object mapping variables to "
                                                  "polynomials")) != set(variables):
                raise ParseError(f"{field} must map exactly the variables {variables}, "
                                 f"got {per_var!r}")
            images[bname] = {v: _poly(t, variables, f"{what}: the image of {v} under {bname}")
                             for v, t in per_var.items()}
        return action_mod.HopfAction.from_generator_images(h, backend, images)
    if "matrices" in d:
        if ws.caps.degree is not None:
            raise ParseError(
                f"action {name!r} has explicit matrices; --cap-d cannot re-cap it")
        matrices = _basis_map(d["matrices"], h, f"{what}: matrices")
        monos = backend.monomials()
        n = len(monos)
        columns = []
        for bname in h.names:
            if bname not in matrices:
                raise ShapeMismatch(f"action {name!r}: no matrix for basis element {bname!r}")
            rows = _matrix_rows(matrices[bname], f"{what}: the matrix of {bname}")
            if len(rows) != n or any(len(row) != n for row in rows):
                widths = sorted({len(row) for row in rows}) or [0]
                shape = f"{len(rows)}x{'/'.join(map(str, widths))}"
                raise ShapeMismatch(
                    f"action {name!r}: the matrix of {bname} is {shape}, but the "
                    f"carrier has {n} monomials")
            # column j of the entered matrix is the image of the monomial monos[j]
            columns.append({e: dict(zip(monos, (row[j] for row in rows)))
                            for j, e in enumerate(monos)})
        return action_mod.HopfAction(h, backend, columns)
    raise ParseError(f"action {name!r} needs generator_images or matrices")


def _chartable(ws, name, d):
    what = f"character table {name!r}"
    # index elements as the group algebra of this group does
    order, table = hopf_mod.relabel_identity_first(_reference(ws, "groups", d, "group", what))
    pos = {old: new for new, old in enumerate(order)}
    classes = _group_table(_field(d, "classes", what), f"{what}: classes")
    for g in (g for c in classes for g in c):
        if g not in pos:
            raise ParseError(f"{what}: classes name element {g}, which is not in "
                             f"0..{len(order) - 1}")
    classes = [[pos[g] for g in c] for c in classes]
    chars = []
    entries = _of_type(_field(d, "characters", what), list, f"{what}: characters",
                       "a list of objects")
    for k, ch in enumerate(entries):
        ch = _of_type(ch, dict, f"{what}: character {k}", "an object")
        ch_name = _field(ch, "name", f"{what}: character {k}")
        if not isinstance(ch_name, str):
            raise ParseError(f"{what}: character {k}: name must be a string, got {ch_name!r}")
        owner = f"{what}: character {ch_name!r}"
        mats = None
        if "matrices" in ch:
            if not (isinstance(ch["matrices"], list) and len(ch["matrices"]) == len(order)):
                raise ParseError(f"{owner}: matrices must be a list of one matrix "
                                 f"per group element")
            mats = tuple(_matrix_rows(ch["matrices"][old], f"{owner}: matrices")
                         for old in order)
        values = _of_type(_field(ch, "values", owner), list, f"{owner}: values",
                          "a list of scalars")
        if len(values) != len(classes):
            raise ParseError(f"{owner}: values must give one scalar for each of the "
                             f"{len(classes)} classes, got {values!r}")
        chars.append(sw_mod.IrrepCharacter(
            name=ch_name, degree=_integer(_field(ch, "degree", owner), 1, f"{owner}: degree"),
            values=tuple(_scalar(v, f"{owner}: values") for v in values), matrices=mats))
    try:
        table = sw_mod.CharacterTable(table, classes, chars, identity=0)
    except ValueError as exc:  # classes that do not partition or are not conjugation-closed
        raise ParseError(f"{what}: {exc}") from None
    for check, (ok, witness) in sw_mod.verify_character_table(table).items():
        if not ok:
            raise ParseError(f"character table {name!r} fails {check}: {witness}")
    return table


SECTIONS = {
    "groups": lambda ws, name, d: [list(r) for r in _group_table(
        _field(d, "table", f"group {name!r}"), f"group {name!r}: table")],
    "hopf_algebras": _hopf,
    "backends": _backend,
    "actions": _action,
    "character_tables": _chartable,
}


class Workspace:
    """Named objects resolved lazily so cap overrides apply uniformly."""

    def __init__(self, defs, caps: Caps):
        self.defs = defs
        self.caps = caps
        self._cache = {}
        self._building = []   # the (section, name) keys being built, outermost first
        # the one Hopf algebra built without its axiom check, for the commands
        # that examine its structure constants themselves
        self.unchecked = None

    def get(self, section, name):
        """The object `name` of `section`, built once; a ParseError naming the
        cycle if building it needs the object itself."""
        key = (section, name)
        if key not in self._cache:
            if key in self._building:
                cycle = self._building[self._building.index(key):] + [key]
                raise ParseError("cyclic reference: " + " -> ".join(
                    f"{s[:-1]} {n!r}" for s, n in cycle))
            try:
                d = self.defs[section][name]
            except KeyError:
                raise UnresolvedReference(f"no {section[:-1]} named {name!r}") from None
            self._building.append(key)
            try:
                self._cache[key] = SECTIONS[section](self, name, d)
            finally:
                self._building.pop()
        return self._cache[key]


def load(paths, caps: Caps = None) -> Workspace:
    """Parse and merge workspace files; duplicate names are rejected."""
    defs = {s: {} for s in SECTIONS}
    for path in paths:
        try:
            with open(path) as fh:
                data = json.load(fh)
        except OSError as exc:
            raise ParseError(f"{path}: {exc}") from None
        except json.JSONDecodeError as exc:
            raise ParseError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from None
        if not isinstance(data, dict):
            raise ParseError(f"{path}: a workspace must be a JSON object")
        if data.get("schema_version") != SCHEMA_VERSION:
            raise ParseError(f"{path}: schema_version must be {SCHEMA_VERSION}")
        for section in SECTIONS:
            entries = data.get(section, [])
            if not isinstance(entries, list):
                raise ParseError(f"{path}: {section} must be a list")
            for entry in entries:
                if not isinstance(entry, dict):
                    raise ParseError(f"{path}: each {section} entry must be an object")
                name = entry.get("name")
                if not name:
                    raise ParseError(f"{path}: {section} entry without a name")
                if not isinstance(name, str):
                    raise ParseError(f"{path}: {section} entry name {name!r} is not a string")
                if name in defs[section]:
                    raise DuplicateName(f"{section}: {name!r} defined twice")
                defs[section][name] = entry
    return Workspace(defs, caps or Caps())


# ---------------------------------------------------------------------------
# serialisation helpers


def _status(ok):
    return "pass" if ok else "fail"


def _report_json(report):
    return {k: {"ok": ok, "witness": w} for k, (ok, w) in report.items()}


def _report_outcome(key, report, label=""):
    """(status, result, human lines) of a command whose verdict is one report."""
    return _status(report.passed), {key: _report_json(report)}, \
        [f"{label}{k}: {'ok' if ok else 'FAIL at ' + str(w)}" for k, (ok, w) in report.items()]


def _dimension_line(what, res):
    return (f"{what} dimension {res.kernel.dim} "
            f"({'stabilized' if res.stabilized else 'NOT stabilized'})")


def _kernel_rows(res, variables):
    """The kernel basis of a coefficient map: each vector becomes one
    [monomial, ..., (shift, ...,) coefficient] row per nonzero entry."""
    monos = [va_mod.poly_to_text(va_mod.Poly.monomial(e), list(variables))
             for e in res.monomials]
    return [[[monos[i] for i in key[:res.arity]] + list(key[res.arity:]) + [scalar_to_text(c)]
             for key, c in res.entries(row)] for row in res.kernel.nonzero_rows()]


# ---------------------------------------------------------------------------
# commands


def _unchecked_hopf(ws, args):
    """The named Hopf algebra as entered, its axioms not checked at load."""
    ws.unchecked = args.object
    return ws.get("hopf_algebras", args.object)


def _group_rep(ws, args):
    return sw_mod.FinGroupRep.from_hopf_action(ws.get("actions", args.object))


class _Commands:
    """One handler per command, named after it with '_' for '-', in --help
    order: (workspace, parsed arguments) -> (status, result dict, human lines)."""

    def verify_hopf(ws, args):
        report = hopf_mod.verify_hopf_axioms(_unchecked_hopf(ws, args))
        return _report_outcome("axioms", report, "axiom ")

    def cocommutative(ws, args):
        ok, witness = hopf_mod.is_cocommutative(_unchecked_hopf(ws, args))
        return _status(ok), {"cocommutative": ok, "witness": witness}, \
            [f"cocommutative: {ok}" + (f" (witness {witness})" if witness else "")]

    def group_likes(ws, args):
        likes = hopf_mod.group_likes(ws.get("hopf_algebras", args.object),
                                     conductor=ws.caps.conductor)
        elems = [[scalar_to_text(c) for c in g] for g in likes]
        return "pass", {"count": len(likes), "elements": elems}, \
            [f"{len(likes)} group-like element(s)"]

    def recognize_group_algebra(ws, args):
        h = ws.get("hopf_algebras", args.object)
        try:
            rec = hopf_mod.recognize_group_algebra(h, conductor=ws.caps.conductor)
        except NotGroupAlgebra as exc:
            return "fail", {"group_algebra": False, "reason": str(exc)}, \
                [f"not a group algebra: {exc}"]
        return "pass", {"group_algebra": True, "table": [list(r) for r in rec.table]}, \
            [f"group algebra of order {len(rec.table)}"]

    def verify_action(ws, args):
        report = action_mod.verify_module_vertex_algebra(
            ws.get("actions", args.object), order=ws.caps.order)
        return _report_outcome("checks", report, "check ")

    def pi2_kernel(ws, args):
        backend = ws.get("backends", args.object)
        res = va_mod.pi2_kernel(backend, order=ws.caps.order)
        return "pass", {"dim": res.kernel.dim, "stabilized": res.stabilized,
                        "order": res.order, "basis": _kernel_rows(res, backend.variables)}, \
            [_dimension_line("pi2 kernel", res)]

    def pin_check(ws, args):
        res = va_mod.pin_injectivity_check(ws.get("backends", args.object), ws.caps.arity,
                                           order=ws.caps.order)
        injective = res.kernel.is_zero()
        return _status(injective), {"injective": injective, "arity": res.arity,
                                    "kernel_dim": res.kernel.dim}, \
            [f"pi_{res.arity} injective: {injective}"]

    def z2_kernel(ws, args):
        backend = ws.get("backends", args.object)
        res = va_mod.z2_kernel(backend, order=ws.caps.order, laurent_bound=ws.caps.laurent)
        return "pass", {"dim": res.kernel.dim, "basis": _kernel_rows(res, backend.variables)}, \
            [f"Z2 kernel dimension {res.kernel.dim}"]

    def fixed_points(ws, args):
        act = ws.get("actions", args.object)
        fixed, closure = action_mod.fixed_subspace(act)
        polys = [va_mod.poly_to_text(act.backend.poly_from_coords(list(v)), act.backend.variables)
                 for v in fixed.basis]
        return "pass", {"dim": fixed.dim, "basis": polys, "closure": _report_json(closure)}, \
            [f"fixed subspace dimension {fixed.dim}"] + [f"  {p}" for p in polys]

    def annihilator(ws, args):
        res = action_mod.action_annihilator(ws.get("actions", args.object))
        return "pass", {"dim": res.kernel.dim, "stabilized": res.stabilized,
                        "basis": [[scalar_to_text(c) for c in v] for v in res.kernel.basis]}, \
            [_dimension_line("annihilator", res)]

    def inner_faithful(ws, args):
        ok = action_mod.is_inner_faithful(ws.get("actions", args.object))
        return _status(ok), {"inner_faithful": ok}, [f"inner faithful: {ok}"]

    def quotient(ws, args):
        out = action_mod.inner_faithful_quotient(ws.get("actions", args.object))
        q = out.quotient
        return "pass", {"quotient_dim": q.hopf.dim, "ideal_dim": q.ideal.dim,
                        "fixed_preserved": out.fixed_preserved,
                        "quotient_basis": list(q.hopf.names)}, \
            [f"quotient dimension {q.hopf.dim}; fixed points preserved: {out.fixed_preserved}"]

    def tensor_faithful(ws, args):
        res = action_mod.tensor_power_faithfulness(
            ws.get("actions", args.object), ws.caps.s_max, budget=ws.caps.tensor_budget)
        return "pass", {"table": res.table, "s0": res.stabilization_index}, \
            [f"annihilator dims per tensor power: {res.table}; s0 = {res.stabilization_index}"]

    def thm_5_1(ws, args):
        verdict = action_mod.check_thm_group_algebra(
            ws.get("actions", args.object), pi2_order=ws.caps.order,
            conductor=ws.caps.conductor)
        return _status(verdict.status == "PASS"), \
            {"verdict": verdict.status, "detail": verdict.detail}, \
            [f"group-algebra conclusion checker: {verdict.status} ({verdict.detail})"]

    def thm_5_4(ws, args):
        verdict = action_mod.check_thm_kernel_bialgebra_ideal(
            ws.get("actions", args.object), pi2_order=ws.caps.order)
        status = {"PASS": "pass", "hypothesis-not-established": "refused"}.get(
            verdict.status, "fail")
        return status, {"verdict": verdict.status, "detail": verdict.detail}, \
            [f"kernel-is-Hopf-ideal checker: {verdict.status} ({verdict.detail})"]

    def decompose(ws, args):
        rep = _group_rep(ws, args)
        decomp = sw_mod.decompose(ws.get("character_tables", args.characters), rep)
        mults = {name: list(m) for name, m in sorted(decomp.multiplicities.items())}
        iso_dims = {name: decomp.isotypes[name].dim for name in mults}
        return "pass", {"multiplicities": mults, "isotype_dims": iso_dims}, \
            [f"{name}: multiplicities {m}" for name, m in mults.items()]

    def multiplicity(ws, args):
        rep = _group_rep(ws, args)
        spaces = sw_mod.multiplicity_space(ws.get("character_tables", args.characters), rep,
                                           args.irrep)
        dims = [len(s) for s in spaces]
        return "pass", {"irrep": args.irrep, "dims_per_degree": dims}, \
            [f"multiplicity space dims per degree: {dims}"]

    def commutant(ws, args):
        rep = _group_rep(ws, args)
        samples = [rep.backend.poly_from_coords(list(v)) for v in rep.fixed_points().basis]
        return _report_outcome("checks", sw_mod.check_commutant(rep, samples, ws.caps.mode_budget))

    def reach(ws, args):
        rep = _group_rep(ws, args)
        seed_poly = _poly(args.seed, list(rep.backend.variables), "--seed")
        res = sw_mod.cyclic_reachability(rep, ws.get("character_tables", args.characters),
                                         args.irrep, seed_poly, ws.caps.mode_budget)
        return "pass", {"reachable_dim": res.reachable.dim, "isotype_dim": res.isotype.dim,
                        "fills_isotype": res.fills_isotype}, \
            [f"reachable {res.reachable.dim} of {res.isotype.dim}; "
             f"fills isotype: {res.fills_isotype}"]

    def distinguish(ws, args):
        rep = _group_rep(ws, args)
        decomp = sw_mod.decompose(ws.get("character_tables", args.characters), rep)
        verdict = sw_mod.distinguish_isotypes(decomp, args.irrep, args.irrep2,
                                              mode_order=ws.caps.mode_budget)
        return _status(verdict.kind != "inconclusive"), \
            {"verdict": verdict.kind, "detail": verdict.detail}, \
            [f"distinguished-by: {verdict.kind}"]


COMMANDS = {name.replace("_", "-"): handler for name, handler in vars(_Commands).items()
            if not name.startswith("_")}


def run(ws: Workspace, args):
    """Execute the parsed command `args.command`; returns (status, result
    dict, human lines)."""
    return COMMANDS[args.command](ws, args)


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
    for flag, option in OPTIONS.items():
        p.add_argument(flag, type=int, default=option.default)
    p.add_argument("--json-only", action="store_true")
    return p


# parsing leaves the parser unchanged, so one process builds it once
_parser = functools.cache(build_parser)


def main(argv=None):
    parser = _parser()
    args = parser.parse_args(argv)
    values = {}
    for flag, option in OPTIONS.items():
        value = getattr(args, flag[2:].replace("-", "_"))
        if value is not None and value < option.least:
            parser.error(f"{flag} must be at least {option.least}, got {value}")
        values[option.field] = value
    try:
        status, result, human = run(load(args.workspace, Caps(**values)), args)
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
