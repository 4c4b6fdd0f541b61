"""Exact linear algebra over the scalar field.

Matrices and subspaces over Q or Q(zeta_N).  A Matrix stores every entry
and derives, once, the nonzero (column, value) pairs of each row; products,
sums, scalings and matrix-vector products run over those pairs only, so a
sparse matrix costs what it holds, not n^3.  The maps of Hopf actions and
their isotypic projectors are not Matrices: they are {monomial: coefficient}
columns (`action`), whose null spaces come here through `_kernel_of_columns`.

Every exact row reduction runs on one sparse echelon form, rows
{column: scalar} kept fully reduced as {pivot: row} (`_echelon_add`):
`_rref_rows` reduces a list of rows on it, `span_closure` grows a span under
linear maps on it.  A rational row is cleared of denominators once, on
arrival, and reduced fraction-free into a primitive integer row with a
positive pivot entry (gcd normalisation, the Bareiss-style growth control);
a cyclotomic entry moves only the rows it meets to field elimination.
Subspace bases are kept in reduced row-echelon form so subspace equality is
representation equality, each row born sparse, as the (column, scalar) pairs
of its nonzero entries.  Every null space, in linalg, vertexalg, action and
schurweyl, comes from `_kernel_of_columns`, per connected component of its
columns, on their global ids.  There the rows of a component with at
least as many rows as columns are first reduced modulo a prime p: the
largest prime below 2^30 for a rational component, and for one over
Q(zeta_N) the largest prime below 2^30 with p = 1 (mod N), which splits
Phi_N, its rows mapped to F_p by zeta_N -> omega, a primitive N-th root of
unity mod p.  That selects the rows that the exact reduction needs or
certifies a zero kernel with no exact reduction at all; exact dot products
confirm the selection, and the reduction of all rows is the fallback.

Also hosts the primitive-idempotent splitter for commutative associative
algebras, which drives group-like enumeration in the Hopf layer.  A table
with b_i b_j = b_i for i = j and 0 otherwise, and a unit that is sum b_i,
is F^d, and its primitive idempotents are the b_i themselves (the
coordinates of an idempotent are idempotents of F, so each is 0 or 1); the
split returns them after one pass over the table, as for the dual of a
group algebra, whose basis is the delta functions.  Otherwise it builds
one sparse table per call: the products of the Q-basis b_i zeta^a of
A (x) Q(zeta_N), as nonzero (index, rational) pairs.  Every block is its
idempotent e, starting from the unit, which the caller passes in.  A
candidate g splits it by the rational roots of the minimal polynomial of
y = g e, found by a Krylov search (e, y, y^2, ... up to the first
dependence, on integer vectors), which is exact because e is the unit of
e.A; the parts are Lagrange idempotents, and each part resumes the
standard candidates after the one that split its parent, as no earlier one
can split it.  The Q-dimension of a block is the trace tr(L_e), from the traces of the
basis, and the rational roots come from a Sturm sequence, so no kernel, no
Cyclotomic and no divisor list is built while splitting.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

from .errors import InvariantViolation, SplitFailure, require
from .scalars import (
    Cyclotomic,
    _divisors,
    as_scalar,
    common_conductor,
    cyclo_coords,
    cyclotomic,
    demoted,
    euler_phi,
    scalar_sort_key,
    zeta_powers,
)

_ZERO = Fraction(0)
_ONE = Fraction(1)


# ---------------------------------------------------------------------------
# the sparse echelon form


def _denominator_lcm(values):
    denom = 1
    for c in values:
        d = c.denominator
        if d != 1:
            denom = denom * d // math.gcd(denom, d)
    return denom


def _cleared(row):
    """The rational row times the lcm of its denominators, as Python ints."""
    denom = _denominator_lcm(row)
    return [c.numerator * (denom // c.denominator) for c in row]


def _canonical_row(row):
    """(pivot, row) for a nonzero sparse row: its least column, and the row
    scaled to the form the echelon keeps, 1 at the pivot while a cyclotomic
    entry remains, else primitive ints with a positive entry there."""
    p = min(row)
    kinds = set(map(type, row.values()))
    if Cyclotomic in kinds:
        inv = _ONE / row[p]
        row = {j: c * inv for j, c in row.items()}
        kinds = set(map(type, row.values()))
        if Cyclotomic in kinds:
            return p, row
    if kinds != {int}:
        row = dict(zip(row, _cleared(row.values())))
    g = math.gcd(*row.values())
    if row[p] < 0:
        g = -g
    return p, row if g == 1 else {j: c // g for j, c in row.items()}


def _combine(a, x, b, y):
    """a x - b y for sparse rows {key: scalar} with no zero entries, a and b
    nonzero; the result has no zero entries either."""
    out = {key: a * v for key, v in x.items()} if a != 1 else dict(x)
    for key, v in y.items():
        w = out.get(key, 0) - b * v
        if w:
            out[key] = w
        else:
            del out[key]
    return out


def _sum(terms):
    """The sums of the (key, value) terms per key, as a dict without zeros."""
    out = {}
    for t, v in terms:
        out[t] = out.get(t, 0) + v
    return {t: v for t, v in out.items() if v}


def _eliminate(row, q, b):
    """`row` with its entry at column q cleared by the echelon row b, whose
    pivot is q: fraction-free (a row - c b, a and c ints) between integer
    rows, by the field quotient row[q] / b[q] otherwise."""
    c, lead = row[q], b[q]
    if lead == 1:
        return _combine(1, row, c, b)
    if c.__class__ is int:  # lead is not 1, so b is an integer row
        g = math.gcd(c, lead)
        return _combine(lead // g, row, c // g, b)
    return _combine(1, row, c / lead, b)


def _echelon_add(echelon, row):
    """Add the sparse row {column: scalar} to the fully reduced echelon form
    {pivot: row}; returns the row added, or None when `row` lies in its span.

    Every row of the form is zero at the other pivots, so the row (a
    rational one cleared to ints first) is reduced by one pass over the
    pivots it holds; what is left joins under its least column, which is
    then cleared from the older rows.
    """
    row = {j: c for j, c in row.items() if c}
    if row and Cyclotomic not in set(map(type, row.values())):
        row = _canonical_row(row)[1]
    for q in [q for q in row if q in echelon]:
        row = _eliminate(row, q, echelon[q])
    if not row:
        return None
    p, row = _canonical_row(row)
    for q, b in echelon.items():
        if p in b:
            echelon[q] = _canonical_row(_eliminate(b, p, row))[1]
    echelon[p] = row
    return row


def _rref_rows(rows, ncols, stop_at_full_rank=False):
    """Reduced row-echelon form of the sparse rows {column: scalar} `rows`:
    (reduced sparse rows, pivot columns), ascending by pivot, on the echelon
    form of `_echelon_add`.  Each row is zero at the other pivot columns and,
    at its own, a positive int in a primitive integer row or 1 in a row that
    a cyclotomic entry reached; `_leading_ones` scales them to the textbook
    form.
    """
    echelon = {}
    for row in rows:
        _echelon_add(echelon, row)
        if stop_at_full_rank and len(echelon) == ncols:
            break
    pivots = tuple(sorted(echelon))
    return [echelon[p] for p in pivots], pivots


def _over(c, lead):
    """c / lead as an exact scalar, for an entry and the pivot of its row."""
    # a pivot other than 1 only occurs in the reducer's integer rows
    return as_scalar(c) if lead == 1 else Fraction(c, lead)


def _leading_ones(red, pivots):
    """The rows of `_rref_rows` scaled to a 1 at each pivot, each as the
    ascending (column, exact scalar) pairs of its nonzero entries."""
    return [[(j, _over(c, b[p])) for j, c in sorted(b.items())] for p, b in zip(pivots, red)]


def span_closure(ambient, seeds, maps):
    """The smallest subspace of F^ambient that holds the sparse rows `seeds`
    and is mapped into itself by each linear map of `maps`, as a Subspace.

    A map takes a sparse row {column: scalar} to its image as one.  The span
    grows as one echelon form (`_echelon_add`), and the images of each row
    it adds are queued: those rows span the result, so by linearity their
    images span its image, and each map runs once per dimension.
    """
    echelon = {}
    pending = list(seeds)
    while pending:
        row = _echelon_add(echelon, pending.pop())
        if row is not None:
            pending += (f(row) for f in maps)
    pivots = tuple(sorted(echelon))
    return Subspace(ambient, _leading_ones([echelon[p] for p in pivots], pivots), pivots)


def _kernel_rref(rows, cols):
    """The null space {v : row . v = 0 for all sparse rows} on the ascending
    columns `cols`, as (RREF rows, pivots), each row the ascending (column,
    scalar) pairs of its nonzero entries.

    The rows are reduced once with column j keyed -j, which reverses the
    column order.  The free-variable null-space basis of the reversed
    matrix, read back in the original column order, is already the reduced
    echelon basis: the vector of free column f has its 1 at f and its other
    entries at pivot columns right of f, where all the other vectors vanish.
    """
    red, pivots = _rref_rows([{-j: c for j, c in row.items()} for row in rows], len(cols),
                             stop_at_full_rank=True)
    pivot_cols = {-p for p in pivots}
    vectors = {f: [(f, _ONE)] for f in cols if f not in pivot_cols}
    # the pivots by ascending column, so that each vector's pairs ascend
    for p, b in zip(reversed(pivots), reversed(red)):
        for j, c in b.items():
            if j != p:
                vectors[-j].append((-p, _over(-c, b[p])))
    return list(vectors.values()), tuple(vectors)


# the largest prime below 2^30; the rows independent modulo it are the rows
# that exact elimination needs (`_kernel_of_columns`)
_PRIME = 1073741789


def _is_prime(n):
    """Miller-Rabin with the bases 2, 3, 5 and 7, which is exact for every
    n below 3,215,031,751 (Pomerance-Selfridge-Wagstaff), so below 2^30."""
    if n < 2:
        return False
    for q in (2, 3, 5, 7):
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in (2, 3, 5, 7):
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@lru_cache(maxsize=None)
def _split_prime(n):
    """(p, omega) for the conductor n: p the largest prime below 2^30 with
    p = 1 (mod n), and omega a primitive n-th root of unity mod p; None when
    no such prime exists.  For n = 1 this is (`_PRIME`, 1).  Such primes
    split Phi_n into linear factors, the standard modular method over
    cyclotomic fields (Encarnacion, J. Symbolic Comput. 20, 1995).

    F_p^* is cyclic of order p - 1, a multiple of n, so g^((p-1)/n) has
    order dividing n for every g, and exactly n when no (n/q)-th power of it
    is 1 for a prime q | n.
    """
    for k in range((2 ** 30 - 2) // n, 0, -1):
        p = k * n + 1
        if _is_prime(p):
            break
    else:
        return None
    factors = [q for q in _divisors(n) if _is_prime(q)]
    for g in range(2, p):
        omega = pow(g, (p - 1) // n, p)
        if all(pow(omega, n // q, p) != 1 for q in factors):
            return p, omega
    raise InvariantViolation(f"no primitive {n}-th root of unity mod {p}")


def _residue_rows(rows, n, p, omega):
    """The sparse rows {column: scalar} over Q(zeta_n), each scaled by the
    lcm of the denominators of its entries' coordinates and mapped to F_p by
    zeta_n -> omega, as sparse rows {column: int in [0, p)}.

    An entry of conductor m | n is sum_k a_k zeta_m^k, and zeta_m =
    zeta_n^(n/m), so it maps to sum_k a_k omega^(k n/m) mod p.
    """
    powers = [1] * n
    for t in range(1, n):
        powers[t] = powers[t - 1] * omega % p
    out = []
    for row in rows:
        denom = 1
        for c in row.values():
            for x in c.coeffs if c.__class__ is Cyclotomic else (c,):
                d = x.denominator
                if d != 1:
                    denom = denom * d // math.gcd(denom, d)
        r = {}
        for j, c in row.items():
            if c.__class__ is Cyclotomic:
                step = n // c.conductor
                v = sum(x.numerator * (denom // x.denominator) * powers[k * step]
                        for k, x in enumerate(c.coeffs) if x)
            else:
                v = c.numerator * (denom // c.denominator)
            v %= p
            if v:
                r[j] = v
        out.append(r)
    return out


def _independent_mod_p(rows, ncols, p=_PRIME):
    """Indices of the rows, taken in order, that are independent of the
    rows before them modulo the prime p; the search stops at `ncols` of them.

    `rows` are sparse integer rows {column: int}.  The kept rows are held in
    reduced echelon form mod p, {pivot: row} with each row 1 at its pivot
    and 0 at every other pivot, so a new row is reduced by one pass over
    the pivots it holds.
    """
    basis = {}
    chosen = []
    for i, row in enumerate(rows):
        r = {}
        for j, v in row.items():
            v %= p
            if v:
                r[j] = v
        for q in [q for q in r if q in basis]:
            c = r[q]
            for j, v in basis[q].items():
                w = (r.get(j, 0) - c * v) % p
                if w:
                    r[j] = w
                else:
                    del r[j]
        if r:
            q = min(r)
            inv = pow(r[q], -1, p)
            r = {j: v * inv % p for j, v in r.items()}
            for b in basis.values():
                c = b.get(q)
                if c:
                    for j, v in r.items():
                        w = (b.get(j, 0) - c * v) % p
                        if w:
                            b[j] = w
                        else:
                            del b[j]
            basis[q] = r
            chosen.append(i)
            if len(chosen) == ncols:
                break
    return chosen


def _component_kernel(rows, cols, kinds):
    """(RREF rows, pivots) of the null space of one component's sparse rows
    {column: scalar} on its ascending columns `cols`, whose entries have the
    types `kinds`; see `_kernel_of_columns` for the modular row selection
    and its soundness."""
    ncols = len(cols)
    if len(rows) < ncols:
        return _kernel_rref(rows, cols)
    if Cyclotomic in kinds:
        n = math.lcm(*{c.conductor for row in rows for c in row.values()
                       if c.__class__ is Cyclotomic})
        split = _split_prime(n)
        if split is None:
            return _kernel_rref(rows, cols)
        chosen = _independent_mod_p(_residue_rows(rows, n, *split), ncols, split[0])
    else:
        if not kinds <= {int}:
            rows = [dict(zip(row, _cleared(row.values()))) for row in rows]
        chosen = _independent_mod_p(rows, ncols)
    if len(chosen) == ncols:
        return (), ()
    basis, pivots = _kernel_rref([rows[i] for i in chosen], cols)
    # each basis vector on its support, with ints for its integral entries,
    # or as a primitive integer vector when it is rational
    vectors = [{j: demoted(c) for j, c in v} if Cyclotomic in kinds
               else dict(zip((j for j, _ in v), _integral([c for _, c in v])[1])) for v in basis]
    kept = set(chosen)
    if not any(sum(c * w[j] for j, c in row.items() if j in w)
               for i, row in enumerate(rows) if i not in kept for w in vectors):
        return basis, pivots
    return _kernel_rref(rows, cols)


def _kernel_of_columns(columns, ncols):
    """Null space of a sparse column family {rowkey: scalar}, as a Subspace.

    Columns that never share a row key live in independent blocks, so the
    kernel is assembled per connected component; this is what keeps the
    graded backends fast.  One pass over the columns builds every row, a
    sparse {column: scalar} dict on the global column ids; the columns of
    each row are joined into one component, which takes its rows in key
    order.  The components have disjoint column supports, so the union of
    their echelon bases, sorted by pivot, is already the echelon basis of
    the whole kernel.  Each vector stays sparse, as the ascending (column,
    scalar) pairs of its nonzero entries, and the Subspace is born with
    those rows.

    Exact elimination runs only on the rows that decide the answer.  A
    component with at least as many rows as columns is first mapped to F_p
    for a prime p, and its rows reduced modulo p, in order, to select the
    rows independent mod p (`_independent_mod_p`):
      - a rational component has its rows cleared to integers and p is
        `_PRIME`;
      - a component over Q(zeta_N), N the lcm of its entries' conductors,
        takes p, the largest prime below 2^30 with p = 1 (mod N), and omega,
        a primitive N-th root of unity mod p (`_split_prime`).  Each row is
        scaled by the lcm of the denominators of its entries' coordinates,
        which leaves the kernel alone and leaves no denominator to vanish
        mod p, and zeta_N goes to omega (`_residue_rows`).  As p does not
        divide N, x^N - 1 has N distinct roots mod p, and those of order N,
        omega among them, are the roots of Phi_N mod p.  So zeta_N -> omega
        is a ring map Z[zeta_N] -> F_p, and it takes every minor of the
        scaled rows to the same minor of their residues.  When N has no
        such prime the component goes to exact reduction at once.
    When n rows are selected, n the component's column count, the n-minor
    they form is nonzero mod p, so nonzero over Z or Z[zeta_N]: the
    component has full column rank, its kernel is zero, and no exact
    reduction runs.  Otherwise `_kernel_rref` reduces the selected rows only.
    ker(all rows) lies in ker(selected), and the two are equal when every
    other row vanishes on each basis vector of ker(selected), which exact
    dot products check, with the vector's primitive integer form when it is
    rational.  The reduced echelon basis of a subspace is unique, so the
    result is the one the reduction of all rows gives.  When a check fails
    (a prime unlucky for these rows), that reduction runs instead.  Wide
    components, where every row may be needed, go straight to it.
    """
    rows = {}  # row key -> {column: entry}
    kinds = set()
    for ci, col in enumerate(columns):
        kinds.update(map(type, col.values()))
        for key, c in col.items():
            row = rows.get(key)
            if row is None:
                rows[key] = {ci: c}
            else:
                row[ci] = c
    parent = list(range(ncols))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for row in rows.values():
        root = find(next(iter(row)))
        for ci in row:
            parent[find(ci)] = root
    roots = [find(ci) for ci in range(ncols)]
    comps = {}  # root -> (its ascending columns, its row keys)
    for ci, root in enumerate(roots):
        comps.setdefault(root, ([], []))[0].append(ci)
    for key, row in rows.items():
        comps[roots[next(iter(row))]][1].append(key)

    found = []  # (sparse vector, global pivot)
    for cols, keys in comps.values():
        comp_rows = [rows[key] for key in sorted(keys)]
        comp_kinds = kinds if len(kinds) < 2 else \
            {type(c) for row in comp_rows for c in row.values()}
        found += zip(*_component_kernel(comp_rows, cols, comp_kinds))
    found.sort(key=lambda t: t[1])
    return Subspace(ncols, [v for v, _ in found], tuple(p for _, p in found))


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
        red, pivots = _rref_rows(list(map(dict, self.nonzero_rows())), self.cols)
        rows = _leading_ones(red, pivots)
        return Matrix.from_nonzero_rows(len(rows) or 1, self.cols, rows or [[]]), pivots

    def rank(self):
        _, pivots = _rref_rows(list(map(dict, self.nonzero_rows())), self.cols,
                               stop_at_full_rank=True)
        return len(pivots)

    def kernel(self):
        """The full null space {v : M v = 0} as a Subspace of dim-cols space."""
        columns = [{} for _ in range(self.cols)]
        for i, row in enumerate(self.nonzero_rows()):
            for j, a in row:
                columns[j][i] = a
        return _kernel_of_columns(columns, self.cols)

    def det(self):
        """Exact determinant via Bareiss-style fraction-free elimination."""
        require(self.rows == self.cols, "a determinant needs a square matrix")
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


def solve(a: Matrix, b):
    """One solution x of A x = b, or None if the system is inconsistent."""
    require(len(b) == a.rows, "right-hand side length does not match the matrix")
    aug = list(map(dict, a.nonzero_rows()))
    for row, c in zip(aug, b):
        row[a.cols] = as_scalar(c)
    red, pivots = _rref_rows(aug, a.cols + 1)
    if a.cols in pivots:
        return None
    x = [_ZERO] * a.cols
    for p, row in zip(pivots, red):
        if a.cols in row:
            x[p] = _over(row[a.cols], row[p])
    return x


# ---------------------------------------------------------------------------
# Subspace


class Subspace:
    """A subspace given by its reduced row-echelon basis (canonical form).

    It is born with its sparse rows: per basis row, the ascending (column,
    entry) pairs of its nonzero entries (`nonzero_rows`).  The dense
    `basis` is built from them once, on first read.
    """

    __slots__ = ("ambient", "pivots", "_rows", "_basis")

    def __init__(self, ambient, rows, pivots):
        self.ambient = ambient
        self.pivots = pivots  # pivot column per basis row
        self._rows = rows
        self._basis = None

    @classmethod
    def from_vectors(cls, ambient, vectors):
        rows = [dict(enumerate(map(as_scalar, v))) for v in vectors]
        require(all(len(r) == ambient for r in rows), "vector length does not match the space")
        red, pivots = _rref_rows(rows, ambient)
        return cls(ambient, _leading_ones(red, pivots), pivots)

    @classmethod
    def zero(cls, ambient):
        return cls(ambient, [], ())

    @classmethod
    def full(cls, ambient):
        return cls(ambient, [[(i, _ONE)] for i in range(ambient)], tuple(range(ambient)))

    @property
    def basis(self):
        """The RREF rows as tuples of `ambient` scalars, no zero rows."""
        if self._basis is None:
            dense = [[_ZERO] * self.ambient for _ in self._rows]
            for v, pairs in zip(dense, self._rows):
                for j, c in pairs:
                    v[j] = c
            self._basis = tuple(map(tuple, dense))
        return self._basis

    def nonzero_rows(self):
        """Per basis row, its nonzero (column, entry) pairs, ascending by column."""
        return self._rows

    @property
    def dim(self):
        return len(self.pivots)

    def is_zero(self):
        return not self.pivots

    def reduce(self, vec):
        """Residual of `vec` after eliminating all pivot coordinates."""
        return self._reduced([as_scalar(c) for c in vec])

    def _reduced(self, v):
        """The scalars v reduced in place, each basis row on its support."""
        require(len(v) == self.ambient, "vector length does not match the space")
        for support, p in zip(self.nonzero_rows(), self.pivots):
            c = v[p]
            if c != 0:
                for j, y in support:
                    v[j] -= c * y
        return v

    def contains(self, vec):
        return all(c == 0 for c in self.reduce(vec))

    def contains_subspace(self, other):
        return all(self.contains(row) for row in other.basis)

    def coordinates_of(self, vec):
        """Coefficients over the echelon basis, or None if not a member: a
        member's entries at the pivots, where each basis row holds 1 and
        the others 0."""
        v = [as_scalar(c) for c in vec]
        residual = self._reduced(list(v))
        return [v[p] for p in self.pivots] if all(c == 0 for c in residual) else None

    def __add__(self, other):
        require(self.ambient == other.ambient, "subspaces of different spaces")
        return Subspace.from_vectors(self.ambient, list(self.basis) + list(other.basis))

    def intersect(self, other):
        """Exact intersection via the kernel of the stacked transpose."""
        require(self.ambient == other.ambient, "subspaces of different spaces")
        if self.is_zero() or other.is_zero():
            return Subspace.zero(self.ambient)
        stacked = Matrix.from_columns(list(self.basis) + list(other.basis))
        vecs = [linear_combination(lam, self.basis) for lam in stacked.kernel().basis]
        return Subspace.from_vectors(self.ambient, vecs)

    def __eq__(self, other):
        if not isinstance(other, Subspace):
            return NotImplemented
        return self.ambient == other.ambient and self.nonzero_rows() == other.nonzero_rows()

    __hash__ = None

    def __repr__(self):
        return f"Subspace(dim {self.dim} of {self.ambient})"


# ---------------------------------------------------------------------------
# primitive idempotents of a split semisimple commutative algebra


def _integral(vec):
    """(t, w) with vec = t * w, w a primitive integer vector and t > 0 rational."""
    denom = _denominator_lcm(vec)
    ints = [c.numerator * (denom // c.denominator) for c in vec]
    content = math.gcd(*ints) or 1
    if content != 1:
        ints = [c // content for c in ints]
    return Fraction(content, denom), ints


def _reduce_krylov(row, combo, reduced):
    """One step of a fraction-free Krylov search.

    Clears each earlier pivot of `reduced`, a list of (pivot, row, combo)
    whose rows vanish at the pivots before their own, from the sparse
    integer row {key: int}, applies the same steps to `combo` (the
    combination of the search's vectors that the row is), and divides both
    by their common content.  Returns (row, combo); the row is empty
    exactly when it depends on the reduced ones.
    """
    for p, r, cb in reduced:
        c = row.get(p)
        if c:
            k = math.gcd(c, r[p])
            a, b = r[p] // k, c // k
            row = _combine(a, row, b, r)
            combo = _combine(a, combo, b, cb)
    content = math.gcd(*row.values(), *combo.values())
    if content > 1:
        row = {key: v // content for key, v in row.items()}
        combo = {key: v // content for key, v in combo.items()}
    return row, combo


def _first_dependence(rows):
    """Index of the first sparse integer row {key: int} of `rows` that lies
    in the span of those before it, or None when `rows` runs out first.

    The Krylov search of `_minimal_polynomial` without the relation: it
    reads `rows` lazily and stops at the first dependence.
    """
    reduced = []
    for k, row in enumerate(rows):
        row, _ = _reduce_krylov(row, {}, reduced)
        if not row:
            return k
        reduced.append((min(row), row, {}))
    return None


def _minimal_polynomial(alg, e, g):
    """Monic minimal polynomial of y = g e in the block e.A, and its powers.

    Krylov search: the vectors y^k = g^k e (k = 0, 1, ...; y^0 = e) are
    reduced against the earlier ones until the first that depends on them,
    and that relation is the minimal polynomial (ascending Fraction
    coefficients).  This is exact because e is the unit of e.A, which acts
    faithfully on itself: mu(L_y) vanishes on e.A exactly when mu(y) = 0.
    Each y^k is kept as t_k w_k, w_k a primitive integer vector, and the
    reduction (`_reduce_krylov`) is fraction-free, so the search runs on
    ints.  Returns (mu, [(t_0, w_0), ..., (t_(deg mu - 1), w_(deg mu - 1))]).
    """
    g_scale, g_int = _integral(g)
    g_pairs = nonzero_pairs(g_int)
    t, w = _integral(e)
    powers = []
    reduced = []  # (pivot, row, {k: the integer coefficient of w_k in it})
    while len(powers) <= alg.qdim:
        top = len(powers)
        powers.append((t, w))
        w_pairs = nonzero_pairs(w)
        row, combo = _reduce_krylov(dict(w_pairs), {top: 1}, reduced)
        if not row:
            # sum_k combo_k w_k = 0 with w_k = y^k / t_k; divide by the top term
            scale = Fraction(t, combo[top])
            return [combo.get(k, 0) * scale / tk for k, (tk, _) in enumerate(powers)], \
                powers[:-1]
        reduced.append((min(row), row, combo))
        s, w = _integral(alg.qmul(g_pairs, w_pairs))
        t = g_scale * t * s
    raise InvariantViolation("minimal polynomial search ran past the dimension")


def _horner(p, x):
    v = 0
    for c in reversed(p):
        v = v * x + c
    return v


def _pseudo_remainder(a, b):
    """The remainder of the integer polynomial a by b times a positive
    rational, as a primitive integer polynomial ([] when b divides a): each
    step scales a by |b_m| and clears its top term, and the content goes at
    the end (pseudo-division, Knuth, TAOCP vol. 2, 4.6.1)."""
    a = list(a)
    m, lead = len(b) - 1, b[-1]
    while len(a) > m:
        top = a.pop()
        if top:
            k, c = len(a) - m, top if lead > 0 else -top
            a = [x * abs(lead) for x in a]
            for j, d in enumerate(b[:-1]):
                a[k + j] -= c * d
    while a and not a[-1]:
        a.pop()
    content = math.gcd(*a) or 1
    return [x // content for x in a]


def _rational_roots(coeffs):
    """(the rational roots of a Fraction polynomial f, ascending, whether f
    is squarefree); the roots are complete when f is squarefree.

    A root p/q in lowest terms has q | a_n, so y = a_n x maps them onto the
    integer roots of the monic integer polynomial g(y) = a_n^(n-1) f(y/a_n),
    which lie in (-B, B) for B = 2 + max |g_k| (Cauchy).  A Sturm sequence
    counts the distinct real roots of g in (lo, hi]; bisection isolates them,
    and a single simple root is followed by the sign of g down to an
    interval of width 1.  Each later term of the sequence is minus the
    `_pseudo_remainder` of the two before it, a positive multiple of their
    remainder.  The last term is gcd(g, g') up to a factor, so it is
    constant exactly when g is squarefree; a root 0 is stripped before, so
    a repeated one is checked apart.  All of it is integer arithmetic, so
    the cost grows with the bit length of the coefficients, not their size.
    """
    ints = _cleared(coeffs)
    roots = []
    if ints[0] == 0:
        roots.append(_ZERO)
        ints = ints[1:]
    squarefree = not roots or ints[0] != 0
    n = len(ints) - 1
    if n < 1:
        return roots, squarefree
    lead = ints[-1]
    g = [c * lead ** (n - 1 - k) for k, c in enumerate(ints[:-1])] + [1]
    # Sturm sequence, each term scaled to integers by a positive factor
    seq = [g, [k * c for k, c in enumerate(g)][1:]]
    while len(seq[-1]) > 1:
        rem = _pseudo_remainder(seq[-2], seq[-1])
        if not rem:
            break
        seq.append([-c for c in rem])
    squarefree = squarefree and len(seq[-1]) == 1

    def sign_changes(x):
        signs = [v > 0 for v in (_horner(p, x) for p in seq) if v]
        return sum(a != b for a, b in zip(signs, signs[1:]))

    bound = 2 + max(abs(c) for c in g[:-1])
    stack = [(-bound, bound, sign_changes(-bound), sign_changes(bound))]
    while stack:
        lo, hi, vlo, vhi = stack.pop()
        if vlo == vhi:
            continue
        if vlo - vhi > 1 and hi - lo > 1:
            mid = (lo + hi) // 2
            vmid = sign_changes(mid)
            stack += [(mid, hi, vmid, vhi), (lo, mid, vlo, vmid)]
            continue
        # one simple root in (lo, hi], or an interval of width 1
        g_hi = _horner(g, hi)
        while g_hi and hi - lo > 1:
            mid = (lo + hi) // 2
            g_mid = _horner(g, mid)
            if g_mid == 0 or (g_mid > 0) == (g_hi > 0):
                hi, g_hi = mid, g_mid
            else:
                lo = mid
        if g_hi == 0:
            roots.append(Fraction(hi, lead))
    roots.sort()
    return roots, squarefree


def _poly_div_linear(coeffs, root):
    """Divide by (x - root), exactly."""
    out = [_ZERO] * (len(coeffs) - 1)
    carry = _ZERO
    for k in range(len(coeffs) - 1, 0, -1):
        carry = coeffs[k] + carry * root
        out[k - 1] = carry
    require(coeffs[0] + carry * root == 0, "division by a linear factor left a remainder")
    return out


def nonzero_pairs(vec):
    """The (index, value) pairs of the nonzero entries of `vec`.

    Integral rationals come out as ints, which multiply far faster than
    Fractions; sums with the Fraction entries of a result stay Fractions.
    """
    return [(k, demoted(c)) for k, c in enumerate(vec) if c]


class _AlgebraQ:
    """A commutative algebra A over F = Q(zeta_N), as a Q-algebra on one table.

    The Q-basis of A is b_i zeta^a (i < dim, a < phi(N)), at index
    i * phi + a.  `table[p][q]` lists the nonzero (index, coefficient) pairs
    of the product of Q-basis elements p and q, with rational coefficients
    (ints where integral).  It is built once, from the integer coordinates
    of the powers of zeta in `scalars.zeta_powers`; an entry of `mult` that
    is itself cyclotomic enters through its own coordinates.  Products, traces and the checks on
    the output all run on it, so refining the blocks builds no Cyclotomic.
    """

    def __init__(self, nonzero, dim, conductor):
        phi = euler_phi(conductor)
        self.dim = dim
        self.n_field = conductor
        self.phi = phi
        self.qdim = qdim = dim * phi
        zpow = zeta_powers(conductor)
        self.table = table = [[None] * qdim for _ in range(qdim)]
        for i in range(dim):
            for j in range(i + 1):
                entries = [(m * phi, nonzero_pairs(cyclo_coords(c, conductor)))
                           for m, c in nonzero[i][j]]
                for s in range(2 * phi - 1):
                    acc = {}
                    for base, coords in entries:
                        for r, c in coords:
                            for t, z in zpow[(r + s) % conductor]:
                                acc[base + t] = acc.get(base + t, 0) + c * z
                    row = [(k, v.numerator if v.denominator == 1 else v)
                           for k, v in sorted(acc.items()) if v]
                    for a in range(max(0, s - phi + 1), min(s, phi - 1) + 1):
                        table[i * phi + a][j * phi + s - a] = row
                        table[j * phi + s - a][i * phi + a] = row
        # tr(L_p) over the Q-basis, so that tr(L_e) = sum_p e_p tr(L_p)
        self.traces = [sum(c for q in range(qdim) for k, c in table[p][q] if k == q)
                       for p in range(qdim)]

    def qmul(self, nu, nv):
        """The product of two Q-coordinate vectors, given as the (index,
        value) pairs of their nonzero entries, as a dense vector; ints in,
        ints out where the table is integral."""
        out = [0] * self.qdim
        table = self.table
        for p, a in nu:
            row = table[p]
            for q, b in nv:
                ab = a * b
                for m, c in row[q]:
                    out[m] += ab if c == 1 else ab * c
        return out

    def qdim_of(self, e):
        """The Q-dimension of e.A for an idempotent e: tr(L_e)."""
        return sum(c * t for c, t in zip(e, self.traces) if c)

    def q_to_f(self, qv):
        phi = self.phi
        return [cyclotomic(self.n_field, qv[i * phi:(i + 1) * phi]) for i in range(self.dim)]

    def f_to_q(self, fv):
        out = []
        for s in fv:
            out.extend(cyclo_coords(s, self.n_field))
        return out


def _is_idempotent_basis(nonzero, unit):
    """Whether b_i b_j is b_i for i = j and 0 otherwise, for every i and j,
    and `unit` is sum_i b_i: one pass over the table."""
    for i, row in enumerate(nonzero):
        diagonal = row[i]
        if len(diagonal) != 1 or diagonal[0][0] != i or diagonal[0][1] != 1 \
                or sum(map(len, row)) != 1:
            return False
    return all(c == 1 for c in unit)


def split_commutative_algebra(nonzero, dim, conductor=1, *, unit):
    """Primitive idempotents of a commutative associative unital algebra.

    `nonzero[i][j]` lists the nonzero (k, c) pairs of b_i * b_j.  Returns the
    idempotents as coordinate vectors over the original basis when every
    block is 1-dimensional over the field Q(zeta_conductor); raises
    SplitFailure("extend-conductor") when an irreducible factor of degree
    > 1 survives and SplitFailure("not-semisimple") when nilpotents are
    detected.

    The caller knows the algebra to be associative and passes its `unit`
    (coordinates over the basis).  Commutativity is checked (d^2
    comparisons), and so is unit * b_j = b_j for every j, which reads each
    structure constant once and raises InvariantViolation when it fails.

    When b_i b_j = b_i for i = j and 0 otherwise, and `unit` is sum_i b_i,
    the algebra is F^d, which is commutative, associative and has the unit
    sum_i b_i, and its primitive idempotents are the b_i: an
    idempotent e has e_i^2 = e_i in F, so each e_i is 0 or 1, and e is
    primitive exactly when one e_i is 1.  The table check is their
    orthogonality and the unit check their sum, so they are returned at
    once, sorted and as Fractions like every other output, with no search.

    Otherwise each block is its idempotent e, starting from the unit.  A
    candidate g splits e by the rational roots theta of the minimal
    polynomial mu of y = g e in e.A: the parts are the Lagrange idempotents
    q_theta(y) / q_theta(theta), q_theta = mu / (t - theta), and the rest
    e - sum of them.  The Q-dimension of a block is tr(L_e).  For a block
    e' <= e, e'.A is a quotient of e.A, so the minimal polynomial of g e'
    divides that of g e.  A candidate that leaves e unsplit (mu linear, or
    without a rational root) therefore leaves every part of e unsplit, and
    the candidate that split e is scalar on each Lagrange part and has no
    rational root on the rest.  So the standard basis is tried once per
    lineage: each part resumes at the basis element after the one that split
    its parent, and the parts of a block that only a second-stage candidate
    split are not offered the standard basis again.  The idempotents are
    unique, so the sorted output does not depend on the order of the splits.
    """
    if dim == 0:
        return []  # the zero algebra has no primitive idempotent
    if _is_idempotent_basis(nonzero, unit):
        # A = F^d: its primitive idempotents are the b_i, sorted as below
        return [tuple(_ONE if k == i else _ZERO for k in range(dim))
                for i in reversed(range(dim))]
    for i in range(dim):
        for j in range(i):
            if dict(nonzero[i][j]) != dict(nonzero[j][i]):
                raise ValueError("structure tensor is not commutative")
    unit_pairs = nonzero_pairs(unit)
    for j in range(dim):
        acc = {}
        for i, a in unit_pairs:
            for m, c in nonzero[i][j]:
                acc[m] = acc.get(m, 0) + a * c
        require({m: c for m, c in acc.items() if c} == {j: 1},
                f"the given unit times basis element {j} is not that element")
    n_field = math.lcm(conductor, common_conductor(unit), common_conductor(
        c for row in nonzero for pairs in row for _, c in pairs))

    alg = _AlgebraQ(nonzero, dim, n_field)
    qdim, phi = alg.qdim, alg.phi
    unit = alg.f_to_q(unit)
    std = [[_ONE if j == i else _ZERO for j in range(qdim)] for i in range(qdim)]

    def try_split(e, g):
        mu, powers = _minimal_polynomial(alg, e, g)
        roots, squarefree = _rational_roots(mu)
        if not squarefree:
            raise SplitFailure("not-semisimple", "repeated factor in a minimal polynomial")
        if not roots or (len(roots) == 1 and len(mu) == 2):
            return None
        parts = []
        for th in roots:
            q = _poly_div_linear(mu, th)
            value = _horner(q, th)
            parts.append(linear_combination([c * t / value for c, (t, _) in zip(q, powers)],
                                            [w for _, w in powers]))
        if len(roots) < len(mu) - 1:
            rest = list(e)
            for part in parts:
                rest = [x - y if y else x for x, y in zip(rest, part)]
            parts.append(rest)
        return parts

    def first_split(e, qdim_e, candidates):
        """(k, parts) for the first (k, g) of `candidates` whose g splits the
        block e of Q-dimension `qdim_e`, or None; a block of field dimension
        1 is primitive."""
        if qdim_e > phi:
            for k, g in candidates:
                parts = try_split(e, g)
                if parts:
                    return k, parts
        return None

    # each block travels with its Q-dimension tr(L_e), computed once
    # first stage: the standard basis, each part resuming after the element
    # that split its parent
    pending, unsplit = [(unit, alg.qdim_of(unit), 0)], []
    while pending:
        e, qdim_e, start = pending.pop()
        hit = first_split(e, qdim_e, enumerate(std[start:], start))
        if hit:
            pending += [(part, alg.qdim_of(part), hit[0] + 1) for part in hit[1]]
        else:
            unsplit.append((e, qdim_e))

    # second stage: products and sums drawn from the RREF basis of e.A
    def extended(e):
        ne = nonzero_pairs(e)
        rows = [list(r) for r in Subspace.from_vectors(
            qdim, [alg.qmul([(i, 1)], ne) for i in range(qdim)]).basis]
        pairs = [nonzero_pairs(r) for r in rows]
        for a in range(len(rows)):
            for b in range(a, len(rows)):
                yield alg.qmul(pairs[a], pairs[b])
        for a in range(len(rows)):
            for b in range(a + 1, len(rows)):
                yield [x + y for x, y in zip(rows[a], rows[b])]
        for t in (2, 3):
            yield [sum(Fraction(t) ** k * r[m] for k, r in enumerate(rows))
                   for m in range(qdim)]

    blocks = []
    while unsplit:
        e, qdim_e = unsplit.pop()
        hit = first_split(e, qdim_e, enumerate(extended(e)))
        if hit:
            unsplit += [(part, alg.qdim_of(part)) for part in hit[1]]
        else:
            blocks.append((e, qdim_e))

    for _, block_dim in blocks:
        require(block_dim.denominator == 1 and block_dim % phi == 0,
                f"a block has Q-dimension {block_dim}, not a multiple of {phi}")
        if block_dim > phi:
            raise SplitFailure("extend-conductor",
                               f"a block of field dimension {block_dim // phi} resisted splitting")
    blocks = [e for e, _ in blocks]
    # exact output invariants, on e = t w with w an integer vector
    scaled = [_integral(e) for e in blocks]
    scaled_pairs = [nonzero_pairs(w) for _, w in scaled]
    for a, (t, w) in enumerate(scaled):
        for b in range(a, len(blocks)):
            prod = alg.qmul(scaled_pairs[a], scaled_pairs[b])
            require(all(t * x == y for x, y in zip(prod, w)) if a == b else not any(prod),
                    "idempotents fail orthogonality")
    total = [_ZERO] * qdim
    for e in blocks:
        total = [x + y for x, y in zip(total, e)]
    require(total == unit, "idempotents do not sum to 1")
    idempotents = [alg.q_to_f(e) for e in blocks]
    idempotents.sort(key=lambda v: tuple(scalar_sort_key(c) for c in v))
    return [tuple(e) for e in idempotents]
