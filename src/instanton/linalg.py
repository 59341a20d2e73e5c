"""Exact linear algebra: dense RREF, kernels and eigen helpers over Fraction, and
one fraction-free integer kernel for every rank.

Matrices are lists of row lists holding Fractions.  They are treated as
immutable after construction; every routine works on copies.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

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

    def copy(self) -> "Matrix":
        return Matrix(self.data, self.cols)

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
        if self.cols != other.rows:
            raise ValueError("shape mismatch")
        ot = other.transpose().data
        return Matrix([[sum(a * b for a, b in zip(row, col) if a and b)
                        for col in ot] for row in self.data], other.cols)

    def apply(self, v: Sequence) -> Vector:
        if len(v) != self.cols:
            raise ValueError("shape mismatch")
        return [sum(a * _fr(b) for a, b in zip(row, v) if a and b) for row in self.data]

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


def _pick_pivot(rowdata, candidates: List[int], col: int, strategy: str) -> int:
    if strategy == "first":
        return candidates[0]
    # minimal bit-length pivot entry, ties to the earliest row
    def bits(i: int) -> int:
        x = rowdata[i][col]
        return x.numerator.bit_length() + x.denominator.bit_length()
    return min(candidates, key=lambda i: (bits(i), i))


def rref(M: Matrix, strategy: str = "min_bits") -> Tuple[Matrix, List[int], Matrix]:
    """Reduced row echelon form.

    Returns (R, pivots, T) with R = T*M, T invertible, pivots strictly increasing.
    ``strategy`` selects the pivot row: 'first' or 'min_bits' (small entries, to
    limit fraction growth).  The resulting R is the canonical RREF either way.
    """
    a = [list(row) for row in M.data]
    t = [[Fraction(int(i == j)) for j in range(M.rows)] for i in range(M.rows)]
    pivots: List[int] = []
    r = 0
    for c in range(M.cols):
        cand = [i for i in range(r, M.rows) if a[i][c]]
        if not cand:
            continue
        p = _pick_pivot(a, cand, c, strategy)
        a[r], a[p] = a[p], a[r]
        t[r], t[p] = t[p], t[r]
        inv = Fraction(1) / a[r][c]
        a[r] = [x * inv for x in a[r]]
        t[r] = [x * inv for x in t[r]]
        for i in range(M.rows):
            if i != r and a[i][c]:
                f = a[i][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
                t[i] = [x - f * y for x, y in zip(t[i], t[r])]
        pivots.append(c)
        r += 1
        if r == M.rows:
            break
    return Matrix(a, M.cols), pivots, Matrix(t)


def _primitive(row: Dict[int, int]) -> Dict[int, int]:
    """``row`` divided by the gcd of its entries (``row`` must be nonzero)."""
    g = gcd(*row.values())
    return row if g == 1 else {j: c // g for j, c in row.items()}


def row_rank(rows: Iterable[Mapping[int, Fraction]], cols: int) -> int:
    """Exact rank of sparse rational rows ``{column: value}`` with ``cols`` columns.

    Each row is scaled to a primitive integer row and reduced fraction-free
    against the stored pivot rows, keyed by their smallest column p:
    row <- (a/g)*row - (b/g)*pivot, a = pivot[p], b = row[p], g = gcd(a, b),
    followed by content removal.  Primitive integer rows are independent over Z
    iff they are over Q, so the rank is exact.  Returns as soon as the rank is
    ``cols``, taking no further row from ``rows``.
    """
    if cols <= 0:
        return 0
    pivots: Dict[int, Dict[int, int]] = {}
    for row in rows:
        entries = [(j, c) for j, c in row.items() if c]
        if not entries:
            continue
        den = lcm(*(c.denominator for _j, c in entries))
        vec = _primitive({j: c.numerator * (den // c.denominator) for j, c in entries})
        while vec:
            p = min(vec)
            pivot = pivots.get(p)
            if pivot is None:
                pivots[p] = vec
                if len(pivots) == cols:
                    return cols
                break
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
            if vec:
                vec = _primitive(vec)
    return len(pivots)


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


def solve(M: Matrix, b: Sequence) -> Optional[Vector]:
    """One solution of M x = b, or None if inconsistent."""
    aug = Matrix([list(row) + [_fr(bi)] for row, bi in zip(M.data, b)])
    R, pivots, _ = rref(aug)
    if M.cols in pivots:
        return None
    x = [Fraction(0)] * M.cols
    for i, p in enumerate(pivots):
        x[p] = R.data[i][M.cols]
    return x


def generalized_eigenspace(M: Matrix, lam) -> Matrix:
    """Rows span ker (M - lam)^dim(M): the canonical kernel basis of N^m, N = M - lam.

    Stabilisation: m = 1, 2, 4, ... stops once ker N^m = ker N^(2m), after which
    the kernel chain is constant, so the RREF and basis equal those of N^dim(M).
    ker N^(2m) = ker N^m iff ker N^m meets im N^m only in 0, and im N^m is cut out
    by the rows of T below the rank (T N^m = R), so N^(2m) is never formed.
    """
    n = M.rows
    power = M - Matrix.identity(n).scale(lam)
    exponent = 1
    while True:
        R, pivots, T = rref(power)
        kernel = _kernel_from_rref(R, pivots, n)
        r = len(pivots)
        if (r in (0, n) or exponent >= n
                or rank(Matrix(T.data[r:]) * kernel.transpose()) == n - r):
            return kernel
        power = power * power
        exponent *= 2


def generalized_eigenspace_dim(M: Matrix, lam) -> int:
    """dim ker (M - lam)^dim(M), read off the first power whose kernel is stable."""
    return generalized_eigenspace(M, lam).rows


def restrict(M: Matrix, basis: Matrix) -> Matrix:
    """Matrix of M on the span of the ``basis`` rows, which must be independent.

    Invariance: with one RREF R = T*basis, an image v lies in the span iff
    v == sum_r v[p_r] R_r, and then its coordinates are v[pivots] * T.
    """
    R, pivots, T = rref(basis)
    if len(pivots) != basis.rows:
        raise ValueError("basis rows are linearly dependent")
    images = Matrix([M.apply(b) for b in basis.data])
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
    rows = []
    for i in range(ker.rows):
        u = ker.row(i)[:A.rows]
        vec = [sum(u[r] * A.data[r][j] for r in range(A.rows)) for j in range(A.cols)]
        if any(vec):
            rows.append(vec)
    if not rows:
        return Matrix.zeros(0, A.cols)
    R, pivots, _ = rref(Matrix(rows))
    return Matrix([R.row(i) for i in range(len(pivots))])


def char_poly(M: Matrix) -> List[Fraction]:
    """Characteristic polynomial coefficients [c_0..c_n] of det(xI - M).

    Faddeev-LeVerrier; exact but O(n^4), intended for dims <= 60.
    """
    n = M.rows
    if n != M.cols:
        raise ValueError("square matrix required")
    if n > 60:
        raise ValueError("char_poly limited to dimension <= 60")
    coeffs = [Fraction(0)] * (n + 1)
    coeffs[n] = Fraction(1)
    Mk = Matrix.identity(n)
    for k in range(1, n + 1):
        Mk = M * Mk
        c = -Fraction(sum(Mk.data[i][i] for i in range(n)), k)
        coeffs[n - k] = c
        for i in range(n):
            Mk.data[i][i] += c
    return coeffs
