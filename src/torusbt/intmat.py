"""Arbitrary-precision integer matrices and their normal forms.

Everything here is exact: entries are Python ints. A product adds the
rows of the right factor picked by the nonzero entries of the left, in
O(nnz(left) * cols), each output row starting from the row at its first
nonzero coefficient, so a signed-permutation factor copies rows. The
forward gcd pass of the column Hermite form leaves pivots that the
reduction above them never touches, so the pivot rows, surjectivity
(n pivots, all 1), unimodularity (square and onto) and span membership
with coordinates (a forward substitution along them) read that one
pass alone. The reduction above the pivots runs only in kernel_basis,
on the rows of [A; I] (built as [column j of A | e_j]) whose pivots
lie in I. smith_valuations reads the p-adic valuations of the
Smith diagonal by elimination mod p^k on sparse rows, each pivot from
the shortest row holding an entry of least valuation, so no integer
Smith form is ever built. Matrices are immutable tuples of row tuples,
shared freely across threads.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heapify, heappop, heappush
from operator import mul

from .errors import ShapeMismatch, check_instance


@dataclass(frozen=True)
class IntMatrix:
    rows: int
    cols: int
    data: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        try:
            if self.rows < 0 or self.cols < 0:
                raise ShapeMismatch("negative dimension")
            if len(self.data) != self.rows or any(len(r) != self.cols for r in self.data):
                raise ShapeMismatch(f"data does not fill {self.rows}x{self.cols}")
        except TypeError:
            raise ShapeMismatch(f"need int dimensions and a tuple of rows, got {self.rows!r:.20}, "
                                f"{self.cols!r:.20}, {self.data!r:.40}") from None

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
        return self + other * -1

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
            acc = None
            for a, row in zip(r, other.data):
                if not a:
                    continue
                if acc is None:
                    acc = row if a == 1 else [a * y for y in row]
                else:
                    acc = [x + a * y for x, y in zip(acc, row)]
            out.append(zero if acc is None else tuple(acc))
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
            row[i] == 1 and not any(row[:i]) and not any(row[i + 1:])
            for i, row in enumerate(self.data))

    def __str__(self) -> str:
        return "[" + "; ".join(" ".join(str(a) for a in r) for r in self.data) + "]"


def int_rows(rows) -> bool:
    """True iff rows is a list or tuple of lists or tuples of ints."""
    return isinstance(rows, (list, tuple)) and all(
        isinstance(r, (list, tuple)) and all(type(x) is int for x in r) for r in rows)


def from_rows(rows: list[list[int]] | list[tuple[int, ...]], cols: int | None = None) -> IntMatrix:
    """Matrix with these rows; anything but int_rows raises ShapeMismatch."""
    if not int_rows(rows):
        raise ShapeMismatch(f"matrix entries must be integers in a list of rows, got {rows!r:.80}")
    if not rows:
        return IntMatrix(0, cols or 0, ())
    return IntMatrix(len(rows), len(rows[0]) if cols is None else cols, tuple(map(tuple, rows)))


def identity(n: int) -> IntMatrix:
    if type(n) is not int:
        raise ShapeMismatch(f"n = {n!r} is not an integer")
    return IntMatrix(n, n, tuple(
        tuple(1 if i == j else 0 for j in range(n)) for i in range(n)))


def zeros(rows: int, cols: int) -> IntMatrix:
    return IntMatrix(rows, cols, tuple(tuple(0 for _ in range(cols)) for _ in range(rows)))


def block_diag(mats: list[IntMatrix]) -> IntMatrix:
    """Each row of each block padded with zeros to its columns."""
    cols, rows, j0 = sum(m.cols for m in mats), [], 0
    for m in mats:
        rows += [(0,) * j0 + r + (0,) * (cols - j0 - m.cols) for r in m.data]
        j0 += m.cols
    return IntMatrix(len(rows), cols, tuple(rows))


def from_columns(cols: list[tuple[int, ...]], rows: int) -> IntMatrix:
    if any(len(c) != rows for c in cols):
        raise ShapeMismatch(f"columns do not all have length {rows}")
    return IntMatrix(rows, len(cols), tuple(zip(*cols)) or ((),) * rows)


def smith_valuations(mat: IntMatrix, p: int, k: int) -> list[int]:
    """min(v_p(d_i), k) for the Smith diagonal d_1 | d_2 | ... of mat.

    Gaussian elimination over Z/p^k, where every ideal is a power of p,
    on sparse rows {column: entry mod p^k}; empty rows are dropped. Every
    live entry stays divisible by p^v, v the last pivot valuation. The
    pivot is an entry of valuation exactly v in the shortest row holding
    one (a heap by length). It divides its column, so row operations over
    its row's entries clear it from the rows holding that column, and the
    column operations that would clear its row touch no other row, so its
    row and column are dropped. The sorted valuations do not depend on
    the pivot order.
    """
    pk = p ** k
    rows, cols = {}, {}                     # cols[j] holds every row id that has held j
    for i, row in enumerate(mat.data):
        r = {j: b for j, a in enumerate(row) if a and (b := a % pk)}
        if r:
            rows[i] = r
            for j in r:
                cols.setdefault(j, set()).add(i)
    out, v, heap = [], -1, []
    while rows:
        if not heap:                        # every row was seen without valuation v
            v += 1
            if v == k:
                break
            pv, pnext = p ** v, p ** (v + 1)
            heap = [(len(r), i) for i, r in rows.items()]
            heapify(heap)
        n, i = heappop(heap)
        r = rows.get(i)
        if r is None or len(r) != n:        # stale: pivoted, emptied or reduced since
            continue
        j = next((c for c, a in r.items() if a % pnext), None)
        if j is None:
            continue
        del rows[i]
        inv = pow(r.pop(j) // pv, -1, pk)
        piv = [(c, a * inv % pk) for c, a in r.items()]
        for i2 in cols.pop(j):
            r2 = rows.get(i2)
            if r2 is None or j not in r2:
                continue
            q = r2.pop(j) // pv
            for c, b in piv:
                if a := (r2.get(c, 0) - q * b) % pk:
                    r2[c] = a
                    cols[c].add(i2)
                else:
                    r2.pop(c, None)
            if r2:
                heappush(heap, (len(r2), i2))
            else:
                del rows[i2]
        out.append(v)
    return out + [k] * (min(mat.rows, mat.cols) - len(out))


def _echelon(mat: IntMatrix) -> tuple[list[list[int]], list[int]]:
    """The forward gcd pass of the column Hermite form: the columns of mat
    as rows m, the first len(piv) in echelon form with pivots m[k][piv[k]] > 0."""
    m = [list(c) for c in zip(*mat.data)] if mat.data else []
    return m, _forward_pass(m, mat.rows)


def _forward_pass(m: list[list[int]], width: int) -> list[int]:
    """Bring the rows m to echelon form on their first width entries, in
    place; the pivot positions."""
    nrows = len(m)
    piv = []
    for j in range(width):
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
    return piv


def span_coordinates(mat: IntMatrix):
    """vec -> its coordinates along the rows of one _echelon(mat), or None
    when vec is not in the column span of mat over Z. The coordinates
    come by forward substitution; every pivot must divide its entry. A
    matrix in column Hermite form (kernel_basis) is its own echelon
    form, so on one the coordinates are along its columns."""
    m, piv = _echelon(mat)

    def coordinates(vec: tuple[int, ...]) -> list[int] | None:
        if len(vec) != mat.rows:
            raise ShapeMismatch("vector length mismatch")
        res, out = list(vec), []
        for k, j in enumerate(piv):
            q, rem = divmod(res[j], m[k][j])
            if rem:
                return None
            out.append(q)
            if q:
                res = [a - q * b for a, b in zip(res, m[k])]
        return None if any(res) else out
    return coordinates


def _reduce_above(m: list[list[int]], piv: list[int], start: int) -> None:
    """Reduce, in place, the entries of echelon rows start.. at the pivot
    of each later row into [0, pivot); earlier rows stay as they are."""
    for k in range(start, len(piv)):
        j = piv[k]
        for i in range(start, k):
            q = m[i][j] // m[k][j]
            if q:
                m[i] = [x - q * y for x, y in zip(m[i], m[k])]


def pivot_rows(mat: IntMatrix) -> list[int]:
    """The rows of the pivots of mat's column Hermite form, top-down: the
    first nonzero row of each of its columns."""
    return _echelon(mat)[1]


def is_onto(mat: IntMatrix) -> bool:
    """True iff the columns of mat span Z^rows: there are rows echelon
    pivots, all 1."""
    m, piv = _echelon(mat)
    return len(piv) == mat.rows and all(m[k][j] == 1 for k, j in enumerate(piv))


def is_unimodular(mat: IntMatrix) -> bool:
    """True iff mat is square and onto."""
    return mat.rows == mat.cols and is_onto(mat)


def kernel_basis(mat: IntMatrix) -> IntMatrix:
    """Canonical (HNF-reduced) basis of {x : mat @ x = 0}, as columns.

    The column Hermite form of [mat; I] is [mat @ T; T] with T unimodular
    and the last columns of mat @ T zero, so T's last columns are the
    canonical HNF basis of the kernel, a saturated lattice (Cohen, A Course
    in Computational Algebraic Number Theory, §2.4). Its rows [column j | e_j]
    are built directly. A row is reduced only by the rows after it, so only
    the rows with pivots in I are reduced. A non-IntMatrix raises ShapeMismatch.
    """
    check_instance(mat, IntMatrix)
    n = mat.cols
    m = [[*c, *(0,) * j, 1, *(0,) * (n - j - 1)] for j, c in enumerate(mat.transpose().data)]
    piv = _forward_pass(m, mat.rows + n)
    r = sum(1 for j in piv if j < mat.rows)
    _reduce_above(m, piv, r)
    return from_columns([row[mat.rows:] for row in m[r:]], mat.cols)

