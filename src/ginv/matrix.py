"""Exact dense matrices over Q(i).

Everything here is pure and exact.  The one elimination engine, ``rref``,
is fraction-free Gauss-Jordan over the Gaussian integers Z[i] with exact
division by the previous pivot (Bareiss, "Sylvester's identity and
multistep integer-preserving Gaussian elimination", Math. Comp. 22, 1968),
so no rational is reduced until the pivot rows are divided once at the
end.  Built on it: canonical particular solutions (free variables fixed
to zero), nullspace bases, full-rank factorization, subspace comparison
by rank tests, one-sided ideal membership decided by one solve, and the
rank-stabilization index with Cline's chain of full-rank factorizations.

Matrices are immutable; a zero number of rows or columns is legal so that
the rank-0 full-rank factorization (f is n x 0, g is 0 x m) and trivial
kernels work without special cases.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterable, Sequence
from fractions import Fraction
from math import lcm

from .errors import DimensionError, NoSolutionError, SingularMatrixError
from .scalar import ZERO, ONE, GaussianRational, _coerce, scalar_format


class Matrix:
    """Immutable dense matrix with GaussianRational entries."""

    __slots__ = ("rows", "cols", "_data")

    def __init__(self, entries: Iterable[Iterable[object]], cols: int | None = None):
        data = tuple(
            tuple(self._entry(value) for value in row) for row in entries
        )
        self.rows = len(data)
        if data:
            self.cols = len(data[0])
            if any(len(row) != self.cols for row in data):
                raise DimensionError("ragged rows in matrix literal")
        else:
            self.cols = 0 if cols is None else cols
        self._data = data

    @staticmethod
    def _entry(value: object) -> GaussianRational:
        z = _coerce(value)
        if z is None:
            raise TypeError(f"cannot use {value!r} as a matrix entry")
        return z

    # -- constructors ------------------------------------------------------

    @classmethod
    def identity(cls, n: int) -> "Matrix":
        return cls([[ONE if i == j else ZERO for j in range(n)] for i in range(n)])

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "Matrix":
        return cls([[ZERO] * cols for _ in range(rows)], cols=cols)

    @classmethod
    def column(cls, values: Sequence[object]) -> "Matrix":
        return cls([[v] for v in values])

    # -- plumbing ----------------------------------------------------------

    def __getitem__(self, key: tuple[int, int]) -> GaussianRational:
        i, j = key
        return self._data[i][j]

    def row(self, i: int) -> tuple[GaussianRational, ...]:
        return self._data[i]

    def col(self, j: int) -> tuple[GaussianRational, ...]:
        return tuple(row[j] for row in self._data)

    @property
    def shape(self) -> tuple[int, int]:
        return (self.rows, self.cols)

    @property
    def is_square(self) -> bool:
        return self.rows == self.cols

    def is_zero(self) -> bool:
        return all(not e for row in self._data for e in row)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Matrix):
            return NotImplemented
        return self.shape == other.shape and self._data == other._data

    def __hash__(self) -> int:
        return hash((self.shape, self._data))

    def __repr__(self) -> str:
        body = "; ".join(
            " ".join(scalar_format(e) for e in row) for row in self._data
        )
        return f"Matrix({self.rows}x{self.cols}: {body})"

    # -- algebra -----------------------------------------------------------

    def __add__(self, other: "Matrix") -> "Matrix":
        if not isinstance(other, Matrix):
            return NotImplemented
        if self.shape != other.shape:
            raise DimensionError(f"cannot add {self.shape} and {other.shape}")
        return Matrix(
            [
                [a + b for a, b in zip(ra, rb)]
                for ra, rb in zip(self._data, other._data)
            ],
            cols=self.cols,
        )

    def __sub__(self, other: "Matrix") -> "Matrix":
        if not isinstance(other, Matrix):
            return NotImplemented
        if self.shape != other.shape:
            raise DimensionError(f"cannot subtract {other.shape} from {self.shape}")
        return Matrix(
            [
                [a - b for a, b in zip(ra, rb)]
                for ra, rb in zip(self._data, other._data)
            ],
            cols=self.cols,
        )

    def __neg__(self) -> "Matrix":
        return self.scale(GaussianRational(-1))

    def __mul__(self, other: object) -> "Matrix":
        if isinstance(other, Matrix):
            return self.matmul(other)
        z = _coerce(other)
        if z is None:
            return NotImplemented
        return self.scale(z)

    def __rmul__(self, other: object) -> "Matrix":
        z = _coerce(other)
        if z is None:
            return NotImplemented
        return self.scale(z)

    def scale(self, z: object) -> "Matrix":
        z = Matrix._entry(z)
        return Matrix(
            [[z * e for e in row] for row in self._data], cols=self.cols
        )

    def matmul(self, other: "Matrix") -> "Matrix":
        if self.cols != other.rows:
            raise DimensionError(f"cannot multiply {self.shape} by {other.shape}")
        cols_b = [other.col(j) for j in range(other.cols)]
        out = []
        for row in self._data:
            out.append(
                [
                    sum((x * y for x, y in zip(row, cb) if x and y), ZERO)
                    for cb in cols_b
                ]
            )
        return Matrix(out, cols=other.cols)

    def __pow__(self, exponent: int) -> "Matrix":
        if not self.is_square:
            raise DimensionError("matrix power requires a square base")
        if exponent < 0:
            raise ValueError("matrix power requires a nonnegative exponent")
        result = Matrix.identity(self.rows)
        base = self
        e = exponent
        while e:  # repeated squaring
            if e & 1:
                result = result.matmul(base)
            base = base.matmul(base) if e > 1 else base
            e >>= 1
        return result

    @property
    def h(self) -> "Matrix":
        """Conjugate transpose, the involution of the matrix *-ring."""
        return Matrix(
            [
                [self._data[i][j].conjugate() for i in range(self.rows)]
                for j in range(self.cols)
            ],
            cols=self.rows,
        )


def hstack(*matrices: Matrix) -> Matrix:
    mats = [m for m in matrices]
    if not mats:
        raise ValueError("hstack needs at least one matrix")
    rows = mats[0].rows
    if any(m.rows != rows for m in mats):
        raise DimensionError("hstack requires equal row counts")
    return Matrix(
        [sum((list(m.row(i)) for m in mats), []) for i in range(rows)],
        cols=sum(m.cols for m in mats),
    )


# -- elimination -----------------------------------------------------------


def rref(a: Matrix) -> tuple[Matrix, int, tuple[int, ...]]:
    """Reduced row-echelon form with exact unit pivots.

    Returns (R, rank, pivot column indices).  Deterministic: the pivot for
    each column is the first row with a nonzero entry.

    Fraction-free Gauss-Jordan over the Gaussian integers Z[i] (Bareiss,
    "Sylvester's identity and multistep integer-preserving Gaussian
    elimination", Math. Comp. 22, 1968).  Each row is first scaled by the
    lcm of its denominators, which leaves the RREF unchanged.  With pivot p
    in row r and previous pivot d, every other row becomes
    (p row - row[j] pivot_row) / d, an exact division in Z[i] taken as the
    integer quotient of conj(d) (p row - row[j] pivot_row) by |d|^2, real
    d included: each entry stays a minor of the scaled matrix, and every
    pivot row keeps the current pivot on its diagonal.  Each row is a
    nonzero multiple of the same row under plain Gauss-Jordan, so the
    pivots and R agree with it.
    The pivot rows are divided by the last pivot once, at the end.  A
    nonzero remainder would be a bug and raises AssertionError.
    """
    rows, cols = a.rows, a.cols
    re, im = [], []
    for row in a._data:
        scale = lcm(*[e.re.denominator for e in row], *[e.im.denominator for e in row])
        re.append([e.re.numerator * (scale // e.re.denominator) for e in row])
        im.append([e.im.numerator * (scale // e.im.denominator) for e in row])
    pivots = []
    dr, di = 1, 0  # the previous pivot d
    r = 0
    for j in range(cols):
        pivot_row = None
        for i in range(r, rows):
            if re[i][j] or im[i][j]:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        re[r], re[pivot_row] = re[pivot_row], re[r]
        im[r], im[pivot_row] = im[pivot_row], im[r]
        yr, yi = re[r], im[r]
        pr, pi = yr[j], yi[j]
        # x -> (p x - c y) / d is computed as (P x - C y) // n with
        # P = p conj(d), C = c conj(d) and n = |d|^2
        n = dr * dr + di * di
        big_pr, big_pi = pr * dr + pi * di, pi * dr - pr * di
        syr, syi = sum(yr), sum(yi)
        for i in range(rows):
            if i == r:
                continue
            xr, xi = re[i], im[i]
            cr, ci = xr[j] * dr + xi[j] * di, xi[j] * dr - xr[j] * di
            if not (cr or ci or big_pi) and big_pr == n:
                continue  # p = d and nothing to eliminate: the row is unchanged
            qr = [
                (big_pr * u - big_pi * v - cr * s + ci * t) // n
                for u, v, s, t in zip(xr, xi, yr, yi)
            ]
            qi = [
                (big_pr * v + big_pi * u - cr * t - ci * s) // n
                for u, v, s, t in zip(xr, xi, yr, yi)
            ]
            # floor remainders all carry the sign of n, so they are all zero
            # iff the numerators sum to n times the quotients' sum
            sxr, sxi = sum(xr), sum(xi)
            if (
                big_pr * sxr - big_pi * sxi - cr * syr + ci * syi != n * sum(qr)
                or big_pr * sxi + big_pi * sxr - cr * syi - ci * syr != n * sum(qi)
            ):
                raise AssertionError("fraction-free elimination left a remainder")
            re[i], im[i] = qr, qi
        dr, di = pr, pi
        pivots.append(j)
        r += 1
        if r == rows:
            break
    # the pivot rows carry d on their pivots: divide them by d once
    n = dr * dr + di * di
    out = [
        [
            GaussianRational._raw(Fraction(u * dr + v * di, n), Fraction(v * dr - u * di, n))
            for u, v in zip(re[i], im[i])
        ]
        for i in range(r)
    ]
    out.extend([ZERO] * cols for _ in range(rows - r))
    return Matrix(out, cols=cols), r, tuple(pivots)


def rank(a: Matrix) -> int:
    return rref(a)[1]


def solve_right(a: Matrix, b: Matrix) -> Matrix:
    """Canonical u with a*u = b (free variables zero); NoSolutionError otherwise."""
    return _solve(a, b)[0]


def _solve(a: Matrix, b: Matrix) -> tuple[Matrix, int]:
    """(solve_right(a, b), rank(a)) from one elimination of [a|b]."""
    if a.rows != b.rows:
        raise DimensionError(f"cannot solve {a.shape} u = {b.shape}")
    reduced, rk, pivots = rref(hstack(a, b))
    for j in pivots:
        if j >= a.cols:
            raise NoSolutionError(
                f"right-hand column {j - a.cols} is outside the column space"
            )
    out = [[ZERO] * b.cols for _ in range(a.cols)]
    for i, j in enumerate(pivots):
        for k in range(b.cols):
            out[j][k] = reduced[i, a.cols + k]
    # consistent, so every pivot lies in a's columns and rk = rank(a)
    return Matrix(out, cols=b.cols), rk


def invert(a: Matrix) -> Matrix:
    """Exact inverse of a square matrix; SingularMatrixError if rank-deficient."""
    if not a.is_square:
        raise DimensionError("only square matrices can be inverted")
    try:
        return solve_right(a, Matrix.identity(a.rows))
    except NoSolutionError as exc:
        raise SingularMatrixError("matrix is singular") from exc


def nullspace_basis(a: Matrix) -> list[Matrix]:
    """Exact basis of {v : a*v = 0}, one column matrix per free variable."""
    reduced, rk, pivots = rref(a)
    pivot_set = set(pivots)
    basis = []
    for j in range(a.cols):
        if j in pivot_set:
            continue
        v = [ZERO] * a.cols
        v[j] = ONE
        for i, p in enumerate(pivots):
            v[p] = -reduced[i, j]
        basis.append(Matrix.column(v))
    return basis


class FullRankFactorization(namedtuple("FullRankFactorization", "f g rank")):
    """a = f*g with f of full column rank and g of full row rank.

    A named tuple of (f, g, rank): immutable, picklable and unpackable.
    """

    __slots__ = ()


def full_rank_factorize(a: Matrix) -> FullRankFactorization:
    """f = pivot columns of a, g = nonzero rows of rref(a); a = f*g exactly."""
    reduced, rk, pivots = rref(a)
    f = Matrix([[a[i, j] for j in pivots] for i in range(a.rows)], cols=rk)
    g = Matrix([reduced.row(i) for i in range(rk)], cols=a.cols)
    if f.matmul(g) != a:
        raise AssertionError("full-rank factorization failed to reproduce input")
    return FullRankFactorization(f, g, rk)


# -- subspaces -------------------------------------------------------------


class SubspaceDescriptor(namedtuple("SubspaceDescriptor", "kind generator")):
    """im(generator) when kind == "image", ker(generator) when kind == "kernel".

    A named tuple of (kind, generator); any other kind is a ValueError,
    also through _make and _replace.
    """

    __slots__ = ()

    def __new__(cls, kind: str, generator: Matrix):
        if kind not in ("image", "kernel"):
            raise ValueError(f"unknown subspace kind {kind!r}")
        return super().__new__(cls, kind, generator)

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)

    @property
    def ambient(self) -> int:
        return self.generator.rows if self.kind == "image" else self.generator.cols

    def image_form(self) -> Matrix:
        """A matrix whose column space is the described subspace."""
        if self.kind == "image":
            return self.generator
        basis = nullspace_basis(self.generator)
        if not basis:
            return Matrix.zeros(self.generator.cols, 0)
        return hstack(*basis)


def image_of(m: Matrix) -> SubspaceDescriptor:
    return SubspaceDescriptor("image", m)


def kernel_of(m: Matrix) -> SubspaceDescriptor:
    return SubspaceDescriptor("kernel", m)


def subspace_relate(p: SubspaceDescriptor, q: SubspaceDescriptor, mode: str) -> bool:
    """Exact containment/equality of subspaces: p >= q or p == q."""
    if p.ambient != q.ambient:
        raise DimensionError("subspaces live in different ambient spaces")
    u, v = p.image_form(), q.image_form()
    if mode == "contains":
        # im(v) <= im(u) iff rank([u|v]) = rank(u)
        return rank(hstack(u, v)) == rank(u)
    if mode == "equals":
        # im(u) = im(v) iff rank(u) = rank([u|v]) = rank(v)
        both = rank(hstack(u, v))
        return rank(u) == both == rank(v)
    raise ValueError(f"unknown subspace relation {mode!r}")


# -- ideal membership ------------------------------------------------------


class MembershipWitness(
    namedtuple("MembershipWitness", "relation holds witness", defaults=(None,))
):
    """Outcome of a one-sided ideal membership test: (relation, holds, witness).

    When ``holds`` the witness w rebuilds x by one product with the fixed
    element (passed as ``a``): a*w = x for x_in_aR and x_in_bRx, w*a = x
    for x_in_Ra and x_in_xRc.  A negative outcome has witness None.
    """

    __slots__ = ()


def kronecker(p: Matrix, q: Matrix) -> Matrix:
    """Kronecker product p (x) q."""
    out = []
    for i in range(p.rows):
        for k in range(q.rows):
            row = []
            for j in range(p.cols):
                pij = p[i, j]
                row.extend(pij * q[k, l] for l in range(q.cols))
            out.append(row)
    return Matrix(out, cols=p.cols * q.cols)


def ideal_membership(relation: str, x: Matrix, a: Matrix) -> MembershipWitness:
    """Decide x in aR / Ra / bRx / xRc by one exact solve, with its solution as witness.

    ``a`` is the fixed element of the relation; for x_in_bRx it plays the
    role of b and for x_in_xRc the role of c.  Over a field x = b r x for
    some r iff x = b u for some u (take r = b+, since b b+ is the identity
    on im b), so x_in_bRx is decided by the same solve as x_in_aR and
    x_in_xRc, dually, by the same solve as x_in_Ra.
    """
    if not (x.is_square and a.is_square and x.rows == a.rows):
        raise DimensionError("membership tests need square matrices of equal size")
    try:
        if relation in ("x_in_aR", "x_in_bRx"):
            witness = solve_right(a, x)
        elif relation in ("x_in_Ra", "x_in_xRc"):
            witness = solve_right(a.h, x.h).h
        else:
            raise ValueError(f"unknown membership relation {relation!r}")
    except NoSolutionError:
        return MembershipWitness(relation, False)
    return MembershipWitness(relation, True, witness)


# -- nilpotency and index ----------------------------------------------------


def index_chain(a: Matrix) -> tuple[int, Matrix, Matrix, Matrix]:
    """Cline's chain of full-rank factorizations: (k, f, m, g).

    Starting from f = g = I and m = a, factor m = f' g' and continue with
    f f', g' f', g' g until m has full rank.  Then a^k = f g and
    a^(k+1) = f m g, m is invertible, f has full column rank, g has full
    row rank, k is the index and a is nilpotent iff m is 0 x 0.
    Cline, "Inverses of rank invariant powers of a matrix" (1968).
    """
    if not a.is_square:
        raise DimensionError("index is defined for square matrices only")
    f = g = Matrix.identity(a.rows)
    m, k = a, 0
    while True:
        frf = full_rank_factorize(m)
        if frf.rank == m.rows:
            return k, f, m, g
        f, m, g, k = f.matmul(frf.f), frf.g.matmul(frf.f), frf.g.matmul(g), k + 1


def nilpotency_and_index(a: Matrix) -> tuple[bool, int]:
    """(is_nilpotent, k) with k the least power at which rank(a^k) stabilizes.

    Uses a^0 = I, so invertible matrices have index 0 and the zero matrix
    has index 1.
    """
    k, _, m, _ = index_chain(a)
    return m.rows == 0, k
