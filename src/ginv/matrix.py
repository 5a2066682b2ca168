"""Exact dense matrices over Q(i).

Everything here is pure and exact: Gauss-Jordan elimination with exact
pivots, canonical particular solutions (free variables fixed to zero),
nullspace bases, full-rank factorization, subspace comparison by rank
tests, one-sided ideal membership with reconstructing witnesses, and the
rank-stabilization index with Cline's chain of full-rank factorizations.

Matrices are immutable; a zero number of rows or columns is legal so that
the rank-0 full-rank factorization (f is n x 0, g is 0 x m) and trivial
kernels work without special cases.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterable, Sequence

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

    @property
    def t(self) -> "Matrix":
        """Plain transpose (used by vectorization, not by the involution)."""
        return Matrix(
            [[self._data[i][j] for i in range(self.rows)] for j in range(self.cols)],
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
    """
    data = [list(row) for row in a._data]
    rows, cols = a.rows, a.cols
    pivots = []
    r = 0
    for j in range(cols):
        pivot_row = None
        for i in range(r, rows):
            if data[i][j]:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        data[r], data[pivot_row] = data[pivot_row], data[r]
        inv = ONE / data[r][j]
        data[r] = [inv * e if e else e for e in data[r]]
        for i in range(rows):
            if i != r and data[i][j]:
                factor = data[i][j]
                data[i] = [
                    e - factor * p if p else e for e, p in zip(data[i], data[r])
                ]
        pivots.append(j)
        r += 1
        if r == rows:
            break
    return Matrix(data, cols=cols), len(pivots), tuple(pivots)


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

    A named tuple of (kind, generator); any other kind is a ValueError.
    """

    __slots__ = ()

    def __new__(cls, kind: str, generator: Matrix):
        if kind not in ("image", "kernel"):
            raise ValueError(f"unknown subspace kind {kind!r}")
        return super().__new__(cls, kind, generator)

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
        return _image_contains(u, v)
    if mode == "equals":
        # im(u) = im(v) iff rank(u) = rank([u|v]) = rank(v)
        both = rank(hstack(u, v))
        return rank(u) == both == rank(v)
    raise ValueError(f"unknown subspace relation {mode!r}")


def _image_contains(v: Matrix, u: Matrix) -> bool:
    """im(u) <= im(v), decided by rank([v|u]) = rank(v)."""
    return rank(hstack(v, u)) == rank(v)


# -- ideal membership ------------------------------------------------------


class MembershipWitness(
    namedtuple("MembershipWitness", "relation holds witness", defaults=(None,))
):
    """Outcome of a one-sided ideal membership test: (relation, holds, witness).

    When ``holds`` the witness reconstructs x exactly: a*witness = x for
    x_in_aR, witness*a = x for x_in_Ra, a*witness*x = x for x_in_bRx and
    x*witness*a = x for x_in_xRc (the fixed element is passed as ``a``).
    A negative outcome has witness None.
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


def vec(m: Matrix) -> Matrix:
    """Column-major vectorization, so vec(a*r*b) = (b^T (x) a) vec(r)."""
    return Matrix.column([m[i, j] for j in range(m.cols) for i in range(m.rows)])


def unvec(v: Matrix, rows: int, cols: int) -> Matrix:
    return Matrix(
        [[v[j * rows + i, 0] for j in range(cols)] for i in range(rows)], cols=cols
    )


def ideal_membership(relation: str, x: Matrix, a: Matrix) -> MembershipWitness:
    """Decide x in aR / Ra / aRx / xRa with a canonical reconstructing witness.

    ``a`` is the fixed element of the relation; for x_in_bRx it plays the
    role of b and for x_in_xRc the role of c.
    """
    if not (x.is_square and a.is_square and x.rows == a.rows):
        raise DimensionError("membership tests need square matrices of equal size")
    try:
        if relation == "x_in_aR":
            witness = solve_right(a, x)
        elif relation == "x_in_Ra":
            witness = solve_right(a.h, x.h).h
        elif relation in ("x_in_bRx", "x_in_xRc"):
            # x = b r x for some r iff b b+ x = x; x = x r c iff x c+ c = x
            from .pinv import mp_inverse  # at call time: pinv imports this module

            witness = mp_inverse(a)
            if reconstruct(MembershipWitness(relation, True, witness), x, a) != x:
                return MembershipWitness(relation, False)
        else:
            raise ValueError(f"unknown membership relation {relation!r}")
    except NoSolutionError:
        return MembershipWitness(relation, False)
    return MembershipWitness(relation, True, witness)


def reconstruct(witness: MembershipWitness, x: Matrix, a: Matrix) -> Matrix:
    """Rebuild x from a positive membership witness (used by verification)."""
    if not witness.holds or witness.witness is None:
        raise ValueError("cannot reconstruct from a negative membership outcome")
    r = witness.witness
    if witness.relation == "x_in_aR":
        return a.matmul(r)
    if witness.relation == "x_in_Ra":
        return r.matmul(a)
    if witness.relation == "x_in_bRx":
        return a.matmul(r).matmul(x)
    if witness.relation == "x_in_xRc":
        return x.matmul(r).matmul(a)
    raise ValueError(f"unknown membership relation {witness.relation!r}")


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
