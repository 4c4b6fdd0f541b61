"""Exact linear algebra over the scalar field.

Matrices and subspaces over Q or Q(zeta_N).  A Matrix stores every entry
and derives, once, the nonzero (column, value) pairs of each row; products,
sums, scalings and matrix-vector products run over those pairs only, so
the sparse maps of Hopf actions cost what they hold, not n^3.

Every row reduction goes through `_rref_rows`.  Rational input is reduced
fraction-free (integer rows with gcd normalisation, which is the
Bareiss-style growth control); rows of Python ints are taken as they are,
and a row holding Fractions is cleared of denominators there, once, so
callers that can build their rows over Z never create a Fraction before the
result.  Cyclotomic entries switch to plain field elimination.  Subspace
bases are kept in reduced row-echelon form so subspace equality is
representation equality; a null space comes out in that form from a single
reduction (`_kernel_rref`).

Also hosts the primitive-idempotent splitter for commutative associative
algebras, which drives group-like enumeration in the Hopf layer.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import InvariantViolation, SplitFailure, require
from .scalars import (
    Cyclotomic,
    _divisors,
    as_scalar,
    common_conductor,
    cyclo_coords,
    euler_phi,
    from_cyclo_coords,
    scalar_sort_key,
)

_ZERO = Fraction(0)
_ONE = Fraction(1)
_INT = {int}


# ---------------------------------------------------------------------------
# row reduction engines


def _cleared(row):
    """The rational row times the lcm of its denominators, as Python ints."""
    denom = 1
    for c in row:
        d = c.denominator
        if d != 1:
            denom = denom * d // math.gcd(denom, d)
    return [c.numerator * (denom // c.denominator) for c in row]


def _int_normalize(row):
    g = 0
    for c in row:
        g = math.gcd(g, c)
        if g == 1:
            break
    if g == 0:
        return row
    lead = next(c for c in row if c)
    if lead < 0:
        g = -g
    return [c // g for c in row]


def _rref_int(rows, ncols, stop_at_full_rank):
    """Fraction-free reduction of integer rows.

    Returns primitive integer rows with a positive entry at each pivot and
    zeros at every other pivot column, sorted by pivot, and the pivots.
    """
    basis = []  # (pivot_col, integer row), kept sorted by pivot_col
    for row in rows:
        for p, b in basis:
            rp = row[p]
            if rp:
                bp = b[p]
                g = math.gcd(rp, bp)
                mr, mb = bp // g, rp // g
                if mr == 1:
                    row = [x - mb * y for x, y in zip(row, b)]
                else:
                    row = [mr * x - mb * y for x, y in zip(row, b)]
        pivot = next((j for j, c in enumerate(row) if c), None)
        if pivot is None:
            continue
        row = _int_normalize(row)
        basis.append((pivot, row))
        basis.sort(key=lambda t: t[0])
        if stop_at_full_rank and len(basis) == ncols:
            # full column rank: the reduced form is the identity
            return [[int(i == j) for j in range(ncols)] for i in range(ncols)], \
                tuple(range(ncols))
    # back-eliminate above each pivot
    for i in range(len(basis) - 1, -1, -1):
        p, b = basis[i]
        bp = b[p]
        for k in range(i):
            q, b2 = basis[k]
            if b2[p]:
                g = math.gcd(b2[p], bp)
                m2, mb = bp // g, b2[p] // g
                basis[k] = (q, _int_normalize([m2 * x - mb * y for x, y in zip(b2, b)]))
    return [b for _, b in basis], tuple(p for p, _ in basis)


def _rref_generic(rows, ncols, stop_at_full_rank):
    basis = []  # (pivot_col, row with leading 1)
    for row in rows:
        row = list(row)
        for p, b in basis:
            c = row[p]
            if c != 0:
                row = [x - c * y if y else x for x, y in zip(row, b)]
        pivot = next((j for j, c in enumerate(row) if c != 0), None)
        if pivot is None:
            continue
        inv = _ONE / row[pivot]
        row = [x * inv if x else x for x in row]
        basis.append((pivot, row))
        basis.sort(key=lambda t: t[0])
        if stop_at_full_rank and len(basis) == ncols:
            break
    for i in range(len(basis) - 1, -1, -1):
        p, b = basis[i]
        for k in range(i):
            q, b2 = basis[k]
            c = b2[p]
            if c != 0:
                basis[k] = (q, [x - c * y if y else x for x, y in zip(b2, b)])
    return [tuple(b) for _, b in basis], tuple(p for p, _ in basis)


def _rref_rows(rows, ncols, stop_at_full_rank=False):
    """Reduced row-echelon form of `rows`: (reduced rows, pivot columns).

    Every exact row reduction enters here.  Rows of ints go to the
    fraction-free reducer as they are; rows holding Fractions are scaled to
    integers here, once each; a single cyclotomic entry sends the whole
    matrix to field elimination.  Each reduced row is zero at the other
    pivot columns and nonzero at its own: a positive int for rational input
    (primitive integer rows), 1 for cyclotomic input.  `_leading_ones`
    scales them to the textbook form.
    """
    kinds = set()
    for row in rows:
        kinds.update(map(type, row))
    if Cyclotomic in kinds:
        scalars = [[as_scalar(c) for c in r] for r in rows]
        return _rref_generic(scalars, ncols, stop_at_full_rank)
    # cleared lazily: a reduction that reaches full rank early skips the rest
    int_rows = rows if kinds <= _INT else (_cleared(row) for row in rows)
    return _rref_int(int_rows, ncols, stop_at_full_rank)


def _over(c, lead):
    """c / lead as an exact scalar, for an entry and the pivot of its row."""
    # a pivot other than 1 only occurs in the reducer's integer rows
    return as_scalar(c) if lead == 1 else Fraction(c, lead)


def _leading_ones(red, pivots):
    """The rows of `_rref_rows` scaled to a 1 at each pivot, as exact scalars."""
    return [tuple(_over(c, b[p]) for c in b) for p, b in zip(pivots, red)]


def _kernel_rref(rows, ncols):
    """The null space {v : row . v = 0 for all rows} as (RREF basis, pivots).

    The rows are reversed in place, so callers pass lists of their own, and
    reduced once.  The free-variable null-space basis of the reversed matrix,
    read back in the original column order, is already the reduced echelon
    basis: the vector of free column f has its 1 at f and its other entries
    at pivot columns right of f, where all the other vectors vanish.
    """
    for row in rows:
        row.reverse()
    red, pivots = _rref_rows(rows, ncols, stop_at_full_rank=True)
    last = ncols - 1
    pivot_set = set(pivots)
    basis = []
    free = []
    for fr in range(last, -1, -1):
        if fr in pivot_set:
            continue
        v = [_ZERO] * ncols
        v[last - fr] = _ONE
        for p, b in zip(pivots, red):
            c = b[fr]
            if c:
                v[last - p] = _over(-c, b[p])
        basis.append(tuple(v))
        free.append(last - fr)
    return tuple(basis), tuple(free)


# ---------------------------------------------------------------------------
# Matrix


class Matrix:
    """A matrix of exact scalars, immutable after construction.

    `entries` holds every entry, row-major.  The nonzero entries of each
    row, as (column, value) pairs, are derived once on first use, and the
    products, sums, scalings and `apply` iterate only those, so a map that
    sends each basis vector to a few others costs O(nonzeros), not O(n^3).
    """

    __slots__ = ("rows", "cols", "entries", "_nonzero")

    def __init__(self, rows, cols, entries):
        require(len(entries) == rows * cols, "matrix entries do not fill its shape")
        self.rows = rows
        self.cols = cols
        self.entries = tuple(as_scalar(c) for c in entries)
        self._nonzero = None

    @classmethod
    def _exact(cls, rows, cols, entries, nonzero=None):
        """A matrix of already canonical scalars, with its nonzero rows if known."""
        m = cls.__new__(cls)
        m.rows = rows
        m.cols = cols
        m.entries = tuple(entries)
        m._nonzero = nonzero
        return m

    @classmethod
    def from_nonzero_rows(cls, rows, cols, nonzero):
        """The matrix whose row i holds the (column, value) pairs `nonzero[i]`.

        The values must be canonical nonzero scalars (as arithmetic on
        scalars returns them) and each row's columns distinct and ascending;
        every other entry is zero.
        """
        out = [_ZERO] * (rows * cols)
        for i, row in enumerate(nonzero):
            base = i * cols
            for j, v in row:
                out[base + j] = v
        return cls._exact(rows, cols, out, nonzero)

    def nonzero_rows(self):
        """Per row, the list of (column, value) pairs of its nonzero entries."""
        if self._nonzero is None:
            e, c = self.entries, self.cols
            self._nonzero = [[(j, a) for j, a in enumerate(e[i * c:(i + 1) * c]) if a]
                             for i in range(self.rows)]
        return self._nonzero

    @classmethod
    def from_rows(cls, rows):
        rows = [list(r) for r in rows]
        ncols = len(rows[0]) if rows else 0
        require(all(len(r) == ncols for r in rows), "matrix rows differ in length")
        return cls(len(rows), ncols, [c for r in rows for c in r])

    @classmethod
    def from_columns(cls, cols):
        """The matrix whose j-th column is `cols[j]`."""
        nrows = len(cols[0]) if cols else 0
        return cls(nrows, len(cols), [col[r] for r in range(nrows) for col in cols])

    @classmethod
    def zeros(cls, rows, cols):
        return cls._exact(rows, cols, [_ZERO] * (rows * cols), [[] for _ in range(rows)])

    @classmethod
    def identity(cls, n):
        return cls.from_nonzero_rows(n, n, [[(i, _ONE)] for i in range(n)])

    def __getitem__(self, ij):
        i, j = ij
        return self.entries[i * self.cols + j]

    def row(self, i):
        return self.entries[i * self.cols:(i + 1) * self.cols]

    def col(self, j):
        return tuple(self.entries[i * self.cols + j] for i in range(self.rows))

    def row_lists(self):
        return [list(self.row(i)) for i in range(self.rows)]

    def __eq__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        return (self.rows, self.cols) == (other.rows, other.cols) and \
            self.entries == other.entries

    __hash__ = None

    def __add__(self, other):
        require((self.rows, self.cols) == (other.rows, other.cols),
                "matrix shapes differ in a sum")
        out = list(self.entries)
        c = self.cols
        for i, row in enumerate(other.nonzero_rows()):
            base = i * c
            for j, b in row:
                x = out[base + j]
                out[base + j] = x + b if x else b
        return Matrix._exact(self.rows, c, out)

    def __sub__(self, other):
        return self + -other

    def __neg__(self):
        return Matrix.from_nonzero_rows(
            self.rows, self.cols, [[(j, -a) for j, a in row] for row in self.nonzero_rows()])

    def scale(self, s):
        s = as_scalar(s)
        if not s:
            return Matrix.zeros(self.rows, self.cols)
        return Matrix.from_nonzero_rows(
            self.rows, self.cols, [[(j, s * a) for j, a in row] for row in self.nonzero_rows()])

    def __mul__(self, other):
        if not isinstance(other, Matrix):
            return self.scale(other)
        require(self.cols == other.rows, "matrix shapes do not compose in a product")
        right = other.nonzero_rows()
        nonzero = []
        for row in self.nonzero_rows():
            acc = {}
            for k, a in row:
                for j, b in right[k]:
                    x = acc.get(j)
                    acc[j] = a * b if x is None else x + a * b
            nonzero.append(sorted((j, v) for j, v in acc.items() if v))
        return Matrix.from_nonzero_rows(self.rows, other.cols, nonzero)

    def __rmul__(self, other):
        return self.scale(other)

    def apply(self, vec):
        """Matrix times column vector, returned as a list."""
        require(len(vec) == self.cols, "vector length does not match the matrix")
        vals = {k: v for k, v in enumerate(vec) if v}
        if not vals:
            return [_ZERO] * self.rows
        out = []
        for row in self.nonzero_rows():
            acc = _ZERO
            for k, a in row:
                v = vals.get(k)
                if v is not None:
                    acc = acc + a * v
            out.append(acc)
        return out

    def transpose(self):
        return Matrix(self.cols, self.rows,
                      [self.entries[i * self.cols + j]
                       for j in range(self.cols) for i in range(self.rows)])

    def kron(self, other):
        """Kronecker product, left factor major (lexicographic tensor basis)."""
        r = self.rows * other.rows
        c = self.cols * other.cols
        out = [_ZERO] * (r * c)
        for i in range(self.rows):
            for j in range(self.cols):
                a = self.entries[i * self.cols + j]
                if a == 0:
                    continue
                for k in range(other.rows):
                    base = (i * other.rows + k) * c + j * other.cols
                    orow = other.row(k)
                    for l in range(other.cols):
                        if orow[l] != 0:
                            out[base + l] = a * orow[l]
        return Matrix(r, c, out)

    def is_zero(self):
        return not any(self.nonzero_rows())

    def vec(self):
        """Row-major flattening."""
        return list(self.entries)

    def rref(self):
        red, pivots = _rref_rows(self.row_lists(), self.cols)
        rows = _leading_ones(red, pivots)
        return Matrix.from_rows(rows or [[_ZERO] * self.cols]), pivots

    def rank(self):
        _, pivots = _rref_rows(self.row_lists(), self.cols, stop_at_full_rank=True)
        return len(pivots)

    def kernel(self):
        """The full null space {v : M v = 0} as a Subspace of dim-cols space."""
        return Subspace(self.cols, *_kernel_rref(self.row_lists(), self.cols))

    def det(self):
        """Exact determinant via Bareiss-style fraction-free elimination."""
        assert self.rows == self.cols
        n = self.rows
        if n == 0:
            return _ONE
        m = self.row_lists()
        sign = 1
        prev = _ONE
        for k in range(n - 1):
            if m[k][k] == 0:
                for i in range(k + 1, n):
                    if m[i][k] != 0:
                        m[k], m[i] = m[i], m[k]
                        sign = -sign
                        break
                else:
                    return _ZERO
            for i in range(k + 1, n):
                for j in range(k + 1, n):
                    m[i][j] = (m[k][k] * m[i][j] - m[i][k] * m[k][j]) / prev
            prev = m[k][k]
        return m[n - 1][n - 1] if sign > 0 else -m[n - 1][n - 1]

    def __repr__(self):
        return f"Matrix({self.rows}x{self.cols})"


def linear_combination(coeffs, rows):
    """sum c * row over the paired coefficients and (at least one) rows.

    Zero coefficients and zero row entries are skipped, so an entry no term
    reaches keeps the rows' own zero, and int coefficients with int rows
    give an int row for the integer reducer.
    """
    out = None
    for c, row in zip(coeffs, rows):
        if c != 0:
            if out is None:
                out = [c * y if y else y for y in row]
            else:
                out = [x + c * y if y else x for x, y in zip(out, row)]
    return [0] * len(rows[0]) if out is None else out


def kronecker(a: Matrix, b: Matrix) -> Matrix:
    return a.kron(b)


def solve(a: Matrix, b):
    """One solution x of A x = b, or None if the system is inconsistent."""
    assert len(b) == a.rows
    aug = [list(a.row(i)) + [as_scalar(b[i])] for i in range(a.rows)]
    red, pivots = _rref_rows(aug, a.cols + 1)
    if a.cols in pivots:
        return None
    x = [_ZERO] * a.cols
    for p, b in zip(pivots, red):
        x[p] = _over(b[a.cols], b[p])
    return x


# ---------------------------------------------------------------------------
# Subspace


class Subspace:
    """A subspace given by its reduced row-echelon basis (canonical form)."""

    __slots__ = ("ambient", "basis", "pivots")

    def __init__(self, ambient, basis, pivots):
        self.ambient = ambient
        self.basis = basis    # tuple of tuples, RREF rows, no zero rows
        self.pivots = pivots  # pivot column per basis row

    @classmethod
    def from_vectors(cls, ambient, vectors):
        rows = [[as_scalar(c) for c in v] for v in vectors]
        assert all(len(r) == ambient for r in rows)
        red, pivots = _rref_rows(rows, ambient)
        return cls(ambient, tuple(_leading_ones(red, pivots)), pivots)

    @classmethod
    def zero(cls, ambient):
        return cls(ambient, (), ())

    @classmethod
    def full(cls, ambient):
        return cls.from_vectors(ambient, Matrix.identity(ambient).row_lists())

    @property
    def dim(self):
        return len(self.basis)

    def is_zero(self):
        return not self.basis

    def reduce(self, vec):
        """Residual of `vec` after eliminating all pivot coordinates."""
        v = [as_scalar(c) for c in vec]
        assert len(v) == self.ambient
        for row, p in zip(self.basis, self.pivots):
            c = v[p]
            if c != 0:
                v = [x - c * y for x, y in zip(v, row)]
        return v

    def contains(self, vec):
        return all(c == 0 for c in self.reduce(vec))

    def contains_subspace(self, other):
        return all(self.contains(row) for row in other.basis)

    def coordinates_of(self, vec):
        """Coefficients over the echelon basis, or None if not a member."""
        v = [as_scalar(c) for c in vec]
        coeffs = []
        for row, p in zip(self.basis, self.pivots):
            c = v[p]
            coeffs.append(c)
            if c != 0:
                v = [x - c * y for x, y in zip(v, row)]
        if any(c != 0 for c in v):
            return None
        return coeffs

    def __add__(self, other):
        assert self.ambient == other.ambient
        return Subspace.from_vectors(self.ambient, list(self.basis) + list(other.basis))

    def intersect(self, other):
        """Exact intersection via the kernel of the stacked transpose."""
        assert self.ambient == other.ambient
        if self.is_zero() or other.is_zero():
            return Subspace.zero(self.ambient)
        stacked = Matrix.from_columns(list(self.basis) + list(other.basis))
        vecs = [linear_combination(lam, self.basis) for lam in stacked.kernel().basis]
        return Subspace.from_vectors(self.ambient, vecs)

    def __eq__(self, other):
        if not isinstance(other, Subspace):
            return NotImplemented
        return self.ambient == other.ambient and self.basis == other.basis

    __hash__ = None

    def __repr__(self):
        return f"Subspace(dim {self.dim} of {self.ambient})"


# ---------------------------------------------------------------------------
# primitive idempotents of a split semisimple commutative algebra


def _minimal_polynomial(op: Matrix):
    """Monic minimal polynomial (ascending Fraction coefficients)."""
    n = op.rows
    powers = [Matrix.identity(n)]
    while True:
        cols = Matrix.from_columns([p.vec() for p in powers])
        target = (powers[-1] * op).vec()
        sol = solve(cols, target)
        if sol is not None:
            return [-c for c in sol] + [_ONE]
        powers.append(powers[-1] * op)
        if len(powers) > n + 1:
            raise InvariantViolation("minimal polynomial search ran past the dimension")


def _poly_derivative(coeffs):
    return [Fraction(k) * coeffs[k] for k in range(1, len(coeffs))]


def _poly_gcd_degree(a, b):
    from .scalars import _fp_xgcd  # fraction-poly gcd

    g, _, _ = _fp_xgcd(list(a), list(b))
    return len(g) - 1


def _rational_roots(coeffs):
    """All rational roots of a squarefree Fraction polynomial."""
    ints = _cleared(coeffs)
    roots = []
    if ints[0] == 0:
        roots.append(_ZERO)
        ints = ints[1:]
    if len(ints) <= 1:
        return roots
    lead = abs(ints[-1])
    const = abs(ints[0])
    ps = _divisors(const) if const else []
    qs = _divisors(lead)
    seen = set()
    for p in ps:
        for q in qs:
            for cand in (Fraction(p, q), Fraction(-p, q)):
                if cand in seen:
                    continue
                seen.add(cand)
                acc = Fraction(0)
                for c in reversed(ints):
                    acc = acc * cand + c
                if acc == 0:
                    roots.append(cand)
    roots.sort()
    return roots


def _poly_at_matrix(coeffs, m: Matrix):
    out = Matrix.zeros(m.rows, m.cols)
    for c in reversed(coeffs):
        out = out * m
        if c != 0:
            out = out + Matrix.identity(m.rows).scale(c)
    return out


def _poly_div_linear(coeffs, root):
    """Divide by (x - root), exactly."""
    out = [_ZERO] * (len(coeffs) - 1)
    carry = _ZERO
    for k in range(len(coeffs) - 1, 0, -1):
        carry = coeffs[k] + carry * root
        out[k - 1] = carry
    assert coeffs[0] + carry * root == 0
    return out


class _AlgebraQ:
    """A commutative F-algebra restricted to scalars over Q.

    Idempotents do not depend on the base field, so splitting is done over Q
    (where rational root extraction is complete) and the blocks are checked
    for F-dimension 1 afterwards.
    """

    def __init__(self, mult, dim, conductor):
        self.dim = dim
        self.mult = mult
        self.n_field = conductor
        self.phi = euler_phi(conductor)
        self.qdim = dim * self.phi

    def fmul(self, u, v):
        out = [_ZERO] * self.dim
        for i, a in enumerate(u):
            if a == 0:
                continue
            for j, b in enumerate(v):
                if b == 0:
                    continue
                ab = a * b
                for m, c in enumerate(self.mult[i][j]):
                    if c != 0:
                        out[m] = out[m] + ab * c
        return out

    def q_to_f(self, qv):
        out = []
        for i in range(self.dim):
            chunk = qv[i * self.phi:(i + 1) * self.phi]
            out.append(from_cyclo_coords(chunk, self.n_field))
        return out

    def f_to_q(self, fv):
        out = []
        for s in fv:
            out.extend(cyclo_coords(s, self.n_field))
        return out

    def qmul(self, u, v):
        return self.f_to_q(self.fmul(self.q_to_f(u), self.q_to_f(v)))


def split_commutative_algebra(mult, dim, conductor=1):
    """Primitive idempotents of a commutative associative unital algebra.

    `mult[i][j]` is the coordinate vector of b_i * b_j.  Returns the
    idempotents as coordinate vectors over the original basis when every
    block is 1-dimensional over the field Q(zeta_conductor); raises
    SplitFailure("extend-conductor") when an irreducible factor of degree
    > 1 survives and SplitFailure("not-semisimple") when nilpotents are
    detected.
    """
    mult = [[[as_scalar(c) for c in mult[i][j]] for j in range(dim)]
            for i in range(dim)]
    n_field = math.lcm(conductor,
                       common_conductor(c for row in mult for v in row for c in v))
    alg = _AlgebraQ(mult, dim, n_field)

    # precondition checks: commutative, associative, unital
    basis_f = [[_ONE if m == i else _ZERO for m in range(dim)] for i in range(dim)]
    for i in range(dim):
        for j in range(i):
            if mult[i][j] != mult[j][i]:
                raise ValueError("structure tensor is not commutative")
    for i in range(dim):
        for j in range(dim):
            for k in range(dim):
                left = alg.fmul(mult[i][j], basis_f[k])
                right = alg.fmul(basis_f[i], mult[j][k])
                if left != right:
                    raise ValueError("structure tensor is not associative")
    unit_rows = []
    unit_rhs = []
    for j in range(dim):
        for m in range(dim):
            unit_rows.append([mult[i][j][m] for i in range(dim)])
            unit_rhs.append(_ONE if m == j else _ZERO)
    unit_f = solve(Matrix.from_rows(unit_rows), unit_rhs)
    if unit_f is None:
        raise ValueError("structure tensor has no unit element")

    qdim = alg.qdim
    blocks = [Subspace.full(qdim)]
    std = Matrix.identity(qdim).row_lists()

    def op_on_block(gen, block):
        cols = []
        for b in block.basis:
            y = alg.qmul(gen, list(b))
            coords = block.coordinates_of(y)
            assert coords is not None, "block is not an ideal"
            cols.append(coords)
        return Matrix.from_columns(cols)

    def try_split(block, gen):
        if block.dim <= alg.phi:
            return None
        op = op_on_block(gen, block)
        mu = _minimal_polynomial(op)
        if _poly_gcd_degree(mu, _poly_derivative(mu)) > 0:
            raise SplitFailure("not-semisimple", "repeated factor in a minimal polynomial")
        roots = _rational_roots(mu)
        if not roots or (len(roots) == 1 and len(mu) == 2):
            return None
        rest = list(mu)
        parts = []
        for th in roots:
            shifted = op - Matrix.identity(op.rows).scale(th)
            parts.append(shifted.kernel())
            rest = _poly_div_linear(rest, th)
        if len(rest) > 1:
            parts.append(_poly_at_matrix(rest, op).kernel())
        parts = [p for p in parts if p.dim > 0]
        if len(parts) < 2:
            return None
        assert sum(p.dim for p in parts) == block.dim
        return [Subspace.from_vectors(qdim, [linear_combination(lam, block.basis)
                                             for lam in p.basis])
                for p in parts]

    def refine(generators):
        progress = False
        i = 0
        while i < len(blocks):
            block = blocks[i]
            done = False
            for gen in generators(block):
                parts = try_split(block, gen)
                if parts:
                    blocks[i:i + 1] = parts
                    progress = True
                    done = True
                    break
            if not done:
                i += 1
        return progress

    while refine(lambda block: std):
        pass
    # second-stage generators: products and sums drawn from the block itself
    def extended(block):
        rows = [list(r) for r in block.basis]
        for a in range(len(rows)):
            for b in range(a, len(rows)):
                yield alg.qmul(rows[a], rows[b])
        for a in range(len(rows)):
            for b in range(a + 1, len(rows)):
                yield [x + y for x, y in zip(rows[a], rows[b])]
        for t in (2, 3):
            yield [sum(Fraction(t) ** k * r[m] for k, r in enumerate(rows))
                   for m in range(qdim)]

    while refine(extended):
        while refine(lambda block: std):
            pass

    idempotents = []
    for block in blocks:
        assert block.dim % alg.phi == 0
        if block.dim > alg.phi:
            raise SplitFailure("extend-conductor",
                               f"a block of field dimension {block.dim // alg.phi} resisted splitting")
        rows = [list(r) for r in block.basis]
        eq_rows = []
        rhs = []
        for r in rows:
            prods = [alg.qmul(c, r) for c in rows]
            for m in range(qdim):
                eq_rows.append([prods[c][m] for c in range(len(rows))])
                rhs.append(r[m])
        sol = solve(Matrix.from_rows(eq_rows), rhs)
        if sol is None:
            raise SplitFailure("not-semisimple", "a block carries no unit (nil block)")
        idempotents.append(alg.q_to_f(linear_combination(sol, rows)))

    idempotents.sort(key=lambda v: tuple(scalar_sort_key(c) for c in v))
    # exact output invariants
    for a, ea in enumerate(idempotents):
        for b, eb in enumerate(idempotents):
            prod = alg.fmul(ea, eb)
            expect = ea if a == b else [_ZERO] * dim
            assert prod == expect, "idempotents fail orthogonality"
    total = [_ZERO] * dim
    for e in idempotents:
        total = [x + y for x, y in zip(total, e)]
    assert total == [as_scalar(c) for c in unit_f], "idempotents do not sum to 1"
    return [tuple(e) for e in idempotents]
