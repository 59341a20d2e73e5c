"""Exact linear algebra: rank, RREF with transform, products, kernels and eigen
helpers.

Matrices are lists of row lists holding Fractions.  They are treated as
immutable after construction; every routine works on copies.  Fractions are
only the boundary: every elimination and every dot product runs on integer rows
cleared over their common denominator, and eliminations keep those rows
primitive (fraction-free, Bareiss 1968, *Math. Comp.* 22).
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import mul
from typing import Dict, Iterable, List, Mapping, Sequence, Tuple

Vector = List[Fraction]


def _fr(x) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


class Matrix:
    __slots__ = ("rows", "cols", "data")

    def __init__(self, data: Sequence[Sequence], cols: int = 0):
        """``cols`` is the column count of a matrix with no rows; otherwise the
        first row gives it."""
        self.data = [[_fr(x) for x in row] for row in data]
        self.rows = len(self.data)
        self.cols = len(self.data[0]) if self.data else cols
        if any(len(r) != self.cols for r in self.data):
            raise ValueError("ragged matrix")

    @classmethod
    def identity(cls, n: int) -> "Matrix":
        return cls([[Fraction(int(i == j)) for j in range(n)] for i in range(n)])

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "Matrix":
        return cls([[Fraction(0)] * cols for _ in range(rows)], cols)

    def __eq__(self, other) -> bool:
        return (isinstance(other, Matrix) and self.cols == other.cols
                and self.data == other.data)

    def __getitem__(self, ij: Tuple[int, int]) -> Fraction:
        return self.data[ij[0]][ij[1]]

    def row(self, i: int) -> Vector:
        return list(self.data[i])

    def col(self, j: int) -> Vector:
        return [r[j] for r in self.data]

    def transpose(self) -> "Matrix":
        return Matrix([[self.data[i][j] for i in range(self.rows)] for j in range(self.cols)],
                      self.rows)

    def __add__(self, other: "Matrix") -> "Matrix":
        return Matrix([[a + b for a, b in zip(r1, r2)] for r1, r2 in zip(self.data, other.data)],
                      self.cols)

    def __sub__(self, other: "Matrix") -> "Matrix":
        return Matrix([[a - b for a, b in zip(r1, r2)] for r1, r2 in zip(self.data, other.data)],
                      self.cols)

    def scale(self, c) -> "Matrix":
        c = _fr(c)
        return Matrix([[c * x for x in row] for row in self.data], self.cols)

    def __mul__(self, other: "Matrix") -> "Matrix":
        """Each left row and each right column is cleared to integers once, so an
        entry is one integer dot product over the two common denominators."""
        if self.cols != other.rows:
            raise ValueError("shape mismatch")
        left = [_cleared(row) for row in self.data]
        right = [_cleared([row[j] for row in other.data]) for j in range(other.cols)]
        return Matrix([[Fraction(sum(map(mul, rn, cn)), rd * cd) for cn, cd in right]
                       for rn, rd in left], other.cols)

    def apply(self, v: Sequence) -> Vector:
        if len(v) != self.cols:
            raise ValueError("shape mismatch")
        return [row[0] for row in (self * Matrix([[x] for x in v], 1)).data]

    def power(self, k: int) -> "Matrix":
        if self.rows != self.cols:
            raise ValueError("power needs a square matrix")
        result = Matrix.identity(self.rows)
        base = self
        while k:
            if k & 1:
                result = result * base
            k >>= 1
            if k:
                base = base * base
        return result

    def is_zero(self) -> bool:
        return all(not x for row in self.data for x in row)

    def __repr__(self) -> str:
        return f"Matrix({self.rows}x{self.cols})"


def _cleared(values: Sequence[Fraction]) -> Tuple[List[int], int]:
    """(nums, den) with values == nums / den, den the least common denominator."""
    den = lcm(*(x.denominator for x in values))
    return [x.numerator * (den // x.denominator) for x in values], den


def _primitive(row: Dict[int, int]) -> Dict[int, int]:
    """``row`` divided by the gcd of its entries."""
    g = gcd(*row.values())
    return row if g <= 1 else {j: c // g for j, c in row.items()}


def _primitive_row(row: Mapping[int, Fraction]) -> Dict[int, int]:
    """The nonzero entries of a sparse rational row ``{column: value}``, cleared
    over their common denominator and divided by their content."""
    entries = {j: c for j, c in row.items() if c}
    nums, _den = _cleared(list(entries.values()))
    return _primitive(dict(zip(entries, nums)))


def _eliminate(vec: Dict[int, int], pivot: Dict[int, int], p: int) -> Dict[int, int]:
    """The primitive row (a/g)*vec - (b/g)*pivot with a = pivot[p], b = vec[p] and
    g = gcd(a, b); it has no entry in column p.  ``vec`` is updated in place."""
    a, b = pivot[p], vec[p]
    g = gcd(a, b)
    a, b = a // g, b // g
    if a != 1:
        for j in vec:
            vec[j] *= a
    for j, c in pivot.items():
        s = vec.get(j, 0) - b * c
        if s:
            vec[j] = s
        else:
            del vec[j]
    return _primitive(vec) if vec else vec


def _echelon(rows: Iterable[Mapping[int, Fraction]], cols: int) -> Dict[int, Dict[int, int]]:
    """Primitive integer pivot rows of the span of sparse rational rows
    ``{column: value}``, keyed by their smallest column.

    Each row is scaled to a primitive integer row and reduced fraction-free
    against the stored pivot rows (see ``_eliminate``).  Primitive integer rows
    are independent over Z iff they are over Q, so the result is exact, and its
    keys are the leading columns of the span.  Returns as soon as every column
    is a pivot, taking no further row from ``rows``.
    """
    pivots: Dict[int, Dict[int, int]] = {}
    if cols <= 0:
        return pivots
    for row in rows:
        vec = _primitive_row(row)
        while vec:
            p = min(vec)
            pivot = pivots.get(p)
            if pivot is None:
                pivots[p] = vec
                if len(pivots) == cols:
                    return pivots
                break
            vec = _eliminate(vec, pivot, p)
    return pivots


def rref(M: Matrix) -> Tuple[Matrix, List[int], Matrix]:
    """Reduced row echelon form.

    Returns (R, pivots, T) with R = T*M, T invertible, pivots strictly increasing.
    ``_echelon`` reduces the rows of [M | I]; its pivot rows that lead inside M
    are then cleared on the later pivot columns and divided by their pivot
    entries.  R is the canonical RREF, and so is T when M has full row rank;
    below the rank, the rows of T are a basis of the left kernel.
    """
    n, cols = M.rows, M.cols
    echelon = _echelon(({**dict(enumerate(row)), cols + i: Fraction(1)}
                        for i, row in enumerate(M.data)), cols + n)
    pivots = sorted(p for p in echelon if p < cols)
    for k in reversed(range(len(pivots))):
        row = echelon[pivots[k]]
        for q in pivots[k + 1:]:
            if q in row:
                row = _eliminate(row, echelon[q], q)
        echelon[pivots[k]] = row
    zero = Fraction(0)
    R, T = [], []
    for p in sorted(echelon):
        row = echelon[p]
        d = row[p] if p < cols else 1
        R.append([Fraction(row[j], d) if j in row else zero for j in range(cols)])
        T.append([Fraction(row[j], d) if j in row else zero for j in range(cols, cols + n)])
    return Matrix(R, cols), pivots, Matrix(T, n)


def row_rank(rows: Iterable[Mapping[int, Fraction]], cols: int) -> int:
    """Exact rank of sparse rational rows ``{column: value}`` with ``cols`` columns."""
    return len(_echelon(rows, cols))


def det(M: Matrix) -> Fraction:
    """Determinant of a square matrix by Bareiss elimination on its rows cleared
    to integers: each step divides exactly by the previous pivot."""
    if M.rows != M.cols:
        raise ValueError("square matrix required")
    a, den = [], 1
    for row in M.data:
        nums, d = _cleared(row)
        a.append(nums)
        den *= d
    n, sign, prev = M.rows, 1, 1
    for k in range(n):
        p = next((i for i in range(k, n) if a[i][k]), None)
        if p is None:
            return Fraction(0)
        if p != k:
            a[k], a[p] = a[p], a[k]
            sign = -sign
        top = a[k]
        akk = top[k]
        for i in range(k + 1, n):
            aik = a[i][k]
            a[i] = [(x * akk - aik * y) // prev for x, y in zip(a[i], top)]
        prev = akk
    return Fraction(sign * prev, den)


def rank(M: Matrix) -> int:
    return row_rank((dict(enumerate(row)) for row in M.data), M.cols)


def kernel_basis(M: Matrix) -> Matrix:
    """Rows span the right kernel {x : M x = 0}. Empty kernel gives a 0 x cols matrix."""
    R, pivots, _ = rref(M)
    return _kernel_from_rref(R, pivots, M.cols)


def _kernel_from_rref(R: Matrix, pivots: List[int], cols: int) -> Matrix:
    free = [j for j in range(cols) if j not in pivots]
    rows = []
    for f in free:
        v = [Fraction(0)] * cols
        v[f] = Fraction(1)
        for i, p in enumerate(pivots):
            v[p] = -R.data[i][f]
        rows.append(v)
    return Matrix(rows) if rows else Matrix.zeros(0, cols)


def _stable_power(M: Matrix, lam) -> Tuple[Matrix, int]:
    """(N^m, rank N^m) for N = M - lam and the first m = 1, 2, 4, ... with
    rank N^m == rank N^(2m).  Then ker N^m = ker N^(2m), after which the kernel
    chain is constant, so ker N^m = ker N^dim(M)."""
    n = M.rows
    power = M - Matrix.identity(n).scale(lam)
    r = rank(power)
    exponent = 1
    while 0 < r < n and exponent < n:
        square = power * power
        r2 = rank(square)
        if r2 == r:
            break
        power, r, exponent = square, r2, exponent * 2
    return power, r


def generalized_eigenspace(M: Matrix, lam) -> Matrix:
    """Rows span ker (M - lam)^dim(M): the canonical kernel basis of the first
    stable power (see ``_stable_power``)."""
    return kernel_basis(_stable_power(M, lam)[0])


def generalized_eigenspace_dim(M: Matrix, lam) -> int:
    """dim ker (M - lam)^dim(M), from the rank of the first stable power."""
    return M.rows - _stable_power(M, lam)[1]


def restrict(M: Matrix, basis: Matrix) -> Matrix:
    """Matrix of M on the span of the ``basis`` rows, which must be independent.

    Invariance: with one RREF R = T*basis, an image v lies in the span iff
    v == sum_r v[p_r] R_r, and then its coordinates are v[pivots] * T.
    """
    R, pivots, T = rref(basis)
    if len(pivots) != basis.rows:
        raise ValueError("basis rows are linearly dependent")
    images = basis * M.transpose()
    heads = Matrix([[v[p] for p in pivots] for v in images.data])
    if heads * R != images:
        raise ValueError("subspace is not invariant under the operator")
    return (heads * T).transpose()


def is_nilpotent_on(M: Matrix, basis: Matrix) -> bool:
    """Whether R = M restricted to the span of ``basis`` has R^k = 0, k = basis.rows.

    R^m is squared until it is zero; a nonzero R^m with m >= k means R^k != 0.
    """
    k = basis.rows
    if k == 0:
        return True
    power = restrict(M, basis)
    exponent = 1
    while not power.is_zero():
        if exponent >= k:
            return False
        power = power * power
        exponent *= 2
    return True


def subspace_intersection(A: Matrix, B: Matrix) -> Matrix:
    """Rows span (row space of A)' intersected with (row space of B)'.

    Inputs and output use rows-as-vectors.
    """
    if A.rows == 0 or B.rows == 0:
        return Matrix.zeros(0, A.cols)
    # x = A^T u = B^T v  <=>  [A^T | -B^T] (u,v) = 0
    stacked = Matrix([A.col(j) + [-x for x in B.col(j)] for j in range(A.cols)])
    ker = kernel_basis(stacked)
    coeffs = Matrix([row[:A.rows] for row in ker.data], A.rows)
    rows = [vec for vec in (coeffs * A).data if any(vec)]
    if not rows:
        return Matrix.zeros(0, A.cols)
    R, pivots, _ = rref(Matrix(rows))
    return Matrix([R.row(i) for i in range(len(pivots))])
