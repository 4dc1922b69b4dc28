"""Arbitrary-precision integer matrices and their normal forms.

Everything here is exact: entries are Python ints. A product adds the
rows of the right factor picked by the nonzero entries of the left, in
O(nnz(left) * cols). The forward gcd pass of the column Hermite form
leaves pivots that the reduction above them never touches, so
unimodularity (n pivots, all 1) and |det| (their product) read them
alone. The full form, applied to [A; I], gives the kernel of A and a
unimodular transform for exact solves. smith_valuations reads the
p-adic valuations of the Smith diagonal by elimination mod p^k. A
cokernel takes its free rank and torsion order from Hermite forms and
its p-parts from smith_valuations, so no integer Smith form is ever
built. Matrices are immutable tuples of row tuples, shared freely
across threads.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import prod
from operator import mul

from .exact import FinAbGroup, from_elementary_divisors
from .errors import ShapeMismatch
from .units import factorize


@dataclass(frozen=True)
class IntMatrix:
    rows: int
    cols: int
    data: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if self.rows < 0 or self.cols < 0:
            raise ShapeMismatch("negative dimension")
        if len(self.data) != self.rows or any(len(r) != self.cols for r in self.data):
            raise ShapeMismatch(f"data does not fill {self.rows}x{self.cols}")

    def __getitem__(self, ij):
        i, j = ij
        return self.data[i][j]

    def col(self, j: int) -> tuple[int, ...]:
        return tuple(r[j] for r in self.data)

    def tolist(self) -> list[list[int]]:
        return [list(r) for r in self.data]

    def __add__(self, other: "IntMatrix") -> "IntMatrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ShapeMismatch("add shape mismatch")
        return IntMatrix(self.rows, self.cols, tuple(
            tuple(a + b for a, b in zip(ra, rb))
            for ra, rb in zip(self.data, other.data)))

    def __sub__(self, other: "IntMatrix") -> "IntMatrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ShapeMismatch("sub shape mismatch")
        return IntMatrix(self.rows, self.cols, tuple(
            tuple(a - b for a, b in zip(ra, rb))
            for ra, rb in zip(self.data, other.data)))

    def __neg__(self) -> "IntMatrix":
        return IntMatrix(self.rows, self.cols,
                         tuple(tuple(-a for a in r) for r in self.data))

    def __mul__(self, other):
        if isinstance(other, int):
            return IntMatrix(self.rows, self.cols,
                             tuple(tuple(a * other for a in r) for r in self.data))
        return self @ other

    __rmul__ = __mul__

    def __matmul__(self, other: "IntMatrix") -> "IntMatrix":
        if self.cols != other.rows:
            raise ShapeMismatch(f"matmul {self.rows}x{self.cols} @ {other.rows}x{other.cols}")
        zero = (0,) * other.cols
        out = []
        for r in self.data:
            acc = zero
            for a, row in zip(r, other.data):
                if a:
                    acc = [x + a * y for x, y in zip(acc, row)]
            out.append(tuple(acc))
        return IntMatrix(self.rows, other.cols, tuple(out))

    def apply(self, vec: tuple[int, ...]) -> tuple[int, ...]:
        if len(vec) != self.cols:
            raise ShapeMismatch("vector length mismatch")
        return tuple(sum(map(mul, r, vec)) for r in self.data)

    def transpose(self) -> "IntMatrix":
        return IntMatrix(self.cols, self.rows, tuple(zip(*self.data)) if self.data
                         else tuple(() for _ in range(self.cols)))

    def is_zero(self) -> bool:
        return all(a == 0 for r in self.data for a in r)

    def is_identity(self) -> bool:
        return self.rows == self.cols and all(
            self.data[i][j] == (1 if i == j else 0)
            for i in range(self.rows) for j in range(self.cols))

    def __str__(self) -> str:
        return "[" + "; ".join(" ".join(str(a) for a in r) for r in self.data) + "]"


def from_rows(rows: list[list[int]] | list[tuple[int, ...]], cols: int | None = None) -> IntMatrix:
    """Matrix with these rows; an entry that is not an int raises ShapeMismatch."""
    nrows = len(rows)
    if nrows == 0:
        if cols is None:
            cols = 0
        return IntMatrix(0, cols, ())
    ncols = len(rows[0]) if cols is None else cols
    data = tuple(tuple(r) for r in rows)
    if not all(type(a) is int for r in data for a in r):
        raise ShapeMismatch(f"matrix entries must be integers, got {rows!r}")
    return IntMatrix(nrows, ncols, data)


def identity(n: int) -> IntMatrix:
    return IntMatrix(n, n, tuple(
        tuple(1 if i == j else 0 for j in range(n)) for i in range(n)))


def zeros(rows: int, cols: int) -> IntMatrix:
    return IntMatrix(rows, cols, tuple(tuple(0 for _ in range(cols)) for _ in range(rows)))


def vstack(mats: list[IntMatrix]) -> IntMatrix:
    mats = [m for m in mats]
    if not mats:
        return IntMatrix(0, 0, ())
    cols = mats[0].cols
    if any(m.cols != cols for m in mats):
        raise ShapeMismatch("vstack column mismatch")
    data = tuple(r for m in mats for r in m.data)
    return IntMatrix(sum(m.rows for m in mats), cols, data)


def hstack(mats: list[IntMatrix]) -> IntMatrix:
    mats = [m for m in mats]
    if not mats:
        return IntMatrix(0, 0, ())
    rows = mats[0].rows
    if any(m.rows != rows for m in mats):
        raise ShapeMismatch("hstack row mismatch")
    data = tuple(tuple(a for m in mats for a in m.data[i]) for i in range(rows))
    return IntMatrix(rows, sum(m.cols for m in mats), data)


def block_diag(mats: list[IntMatrix]) -> IntMatrix:
    rows = sum(m.rows for m in mats)
    cols = sum(m.cols for m in mats)
    out = [[0] * cols for _ in range(rows)]
    i0 = j0 = 0
    for m in mats:
        for i in range(m.rows):
            for j in range(m.cols):
                out[i0 + i][j0 + j] = m.data[i][j]
        i0 += m.rows
        j0 += m.cols
    return from_rows(out, cols)


def from_columns(cols: list[tuple[int, ...]], rows: int) -> IntMatrix:
    if any(len(c) != rows for c in cols):
        raise ShapeMismatch(f"columns do not all have length {rows}")
    return IntMatrix(rows, len(cols), tuple(zip(*cols)) or ((),) * rows)


def smith_valuations(mat: IntMatrix, p: int, k: int) -> list[int]:
    """min(v_p(d_i), k) for the Smith diagonal d_1 | d_2 | ... of mat.

    Gaussian elimination over Z/p^k, where every ideal is a power of p.
    Every live entry stays divisible by p^v, v the last pivot valuation;
    a pivot of valuation exactly v divides its column, so row operations
    clear it, and the column operations that would clear its row touch
    no other row, so its row and column are dropped. Entries stay below
    p^k.
    """
    pk = p ** k
    rows = [[a % pk for a in r] for r in mat.data]
    live = list(range(mat.cols))
    out, v = [], 0
    while rows and live and v < k:
        pv = p ** (v + 1)
        hit = next(((i, j) for i, r in enumerate(rows) for j in live if r[j] % pv), None)
        if hit is None:
            v += 1
            continue
        i, j = hit
        piv = rows.pop(i)
        inv = pow(piv[j] // p ** v, -1, pk)
        for r in rows:
            q = r[j] // p ** v * inv % pk
            if q:
                r[:] = [(a - q * b) % pk for a, b in zip(r, piv)]
        live.remove(j)
        out.append(v)
    return out + [k] * (min(mat.rows, mat.cols) - len(out))


def _echelon(mat: IntMatrix) -> tuple[list[list[int]], list[int]]:
    """The forward gcd pass of hnf_columns: the columns of mat as rows m,
    the first len(piv) in echelon form with pivots m[k][piv[k]] > 0."""
    m = [list(c) for c in zip(*mat.data)] if mat.data else []
    nrows = len(m)              # original columns
    piv = []
    for j in range(mat.rows):
        pivot_row = len(piv)
        if pivot_row >= nrows:
            break
        # gcd-reduce all entries of column j below pivot_row into one row
        nz = [i for i in range(pivot_row, nrows) if m[i][j] != 0]
        if not nz:
            continue
        i0 = nz[0]
        m[pivot_row], m[i0] = m[i0], m[pivot_row]
        for i in range(pivot_row + 1, nrows):
            while m[i][j] != 0:
                q = m[pivot_row][j] // m[i][j]
                m[pivot_row] = [x - q * y for x, y in zip(m[pivot_row], m[i])]
                if m[pivot_row][j] == 0:
                    m[pivot_row], m[i] = m[i], m[pivot_row]
                    break
                m[pivot_row], m[i] = m[i], m[pivot_row]
        if m[pivot_row][j] < 0:
            m[pivot_row] = [-x for x in m[pivot_row]]
        piv.append(j)
    return m, piv


def hnf_columns(mat: IntMatrix) -> IntMatrix:
    """Column-style Hermite normal form of the column lattice of mat.

    Zero columns are dropped; pivots (first nonzero entry of each column,
    scanning top-down) are positive and strictly lower with each later
    column; earlier columns' entries in a pivot row are reduced into
    [0, pivot). The result is the canonical basis of the column span.
    """
    m, piv = _echelon(mat)
    for k, j in enumerate(piv):
        for i in range(k):
            q = m[i][j] // m[k][j]
            if q:
                m[i] = [x - q * y for x, y in zip(m[i], m[k])]
    return from_columns(m[:len(piv)], mat.rows)


def _diagonal(mat: IntMatrix) -> list[int]:
    """The Hermite diagonal of mat: its echelon pivots."""
    m, piv = _echelon(mat)
    return [m[k][j] for k, j in enumerate(piv)]


def is_unimodular(mat: IntMatrix) -> bool:
    """True iff mat is square and its echelon pivots are n ones."""
    return mat.rows == mat.cols and _diagonal(mat) == [1] * mat.rows


def abs_det(mat: IntMatrix) -> int:
    """|det| of a square matrix: the product of n echelon pivots, 0 if fewer."""
    if mat.rows != mat.cols:
        raise ShapeMismatch("determinant of non-square matrix")
    d = _diagonal(mat)
    return prod(d) if len(d) == mat.cols else 0


def _hermite(mat: IntMatrix):
    """Column Hermite form [mat @ T; T] of [mat; I] as (top rows, T rows, rank).

    T is unimodular; the first rank columns of mat @ T are in echelon form
    and the rest are zero, so T's last columns are the canonical HNF basis
    of the kernel (Cohen, A Course in Computational Algebraic Number
    Theory, §2.4).
    """
    h = hnf_columns(vstack([mat, identity(mat.cols)]))
    top, t = h.data[:mat.rows], h.data[mat.rows:]
    r = sum(1 for j in range(mat.cols) if any(row[j] for row in top))
    return top, t, r


def kernel_basis(mat: IntMatrix) -> IntMatrix:
    """Canonical (HNF-reduced) basis of {x : mat @ x = 0}, as columns.

    The kernel of an integer matrix is a saturated sublattice, so this
    basis generates every integer solution.
    """
    _, t, r = _hermite(mat)
    return IntMatrix(mat.cols, mat.cols - r, tuple(row[r:] for row in t))


def solve_exact(mat: IntMatrix, rhs: IntMatrix) -> IntMatrix | None:
    """Solve mat @ X = rhs over the integers; None when no solution exists.

    Each column is forward-substituted along the pivots of mat @ T (a
    remainder stays in the residual) and mapped back by T; when mat has
    full column rank the solution is unique.
    """
    if rhs.rows != mat.rows:
        raise ShapeMismatch("solve_exact shape mismatch")
    top, t, r = _hermite(mat)
    pivots = [next(i for i, row in enumerate(top) if row[k]) for k in range(r)]
    ys = []
    for j in range(rhs.cols):
        res = list(rhs.col(j))
        y = []
        for k, p in enumerate(pivots):
            q = res[p] // top[p][k]
            y.append(q)
            if q:
                res = [a - q * row[k] for a, row in zip(res, top)]
        if any(res):
            return None
        ys.append(y)
    return IntMatrix(mat.cols, rhs.cols, tuple(
        tuple(sum(a * b for a, b in zip(row[:r], y)) for y in ys) for row in t))


def cokernel_structure(mat: IntMatrix) -> FinAbGroup:
    """Isomorphism type of Z^rows / column-image(mat).

    H = hnf_columns(mat) spans the image with full column rank r, so the
    free rank is rows - r. H^T has full row rank, so the pivots of its
    Hermite form multiply to d_1...d_r, the torsion order, and for each
    p^e exactly dividing that order smith_valuations(H, p, e) gives the
    p-parts. Only the order is factored: H's own pivots depend on the
    basis ([[2**89 - 1], [1]] has cokernel Z and pivot 2**89 - 1).
    """
    h = hnf_columns(mat)
    order = prod(_diagonal(h.transpose()))
    return from_elementary_divisors(
        [p ** v for p, e in factorize(order) for v in smith_valuations(h, p, e)],
        mat.rows - h.cols)

