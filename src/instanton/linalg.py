"""Exact linear algebra: rank, RREF with transform, leading minors, products,
kernels, and subspace helpers (generalized eigenspaces, restriction to an
invariant span, intersection).

A ``Matrix`` is integer rows ``nums`` over one positive denominator ``den``,
kept in lowest terms (gcd(den, every entry) = 1, and den = 1 for the zero
matrix), and it is immutable.  Fractions are only the boundary: a matrix is
built from rational rows, and its entries are read back as Fractions; every
product is a set of integer dot products over one denominator, and every
elimination is one ``_echelon`` pass on the integer rows, kept primitive
(fraction-free).
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
    __slots__ = ("rows", "cols", "nums", "den")

    def __init__(self, data: Sequence[Sequence], cols: int = 0):
        """``cols`` is the column count of a matrix with no rows; otherwise the
        first row gives it."""
        data = [[_fr(x) for x in row] for row in data]
        cols = len(data[0]) if data else cols
        if any(len(r) != cols for r in data):
            raise ValueError("ragged matrix")
        # the lcm of reduced denominators leaves no common factor with the entries
        den = lcm(*(x.denominator for row in data for x in row))
        self.nums = [[x.numerator * (den // x.denominator) for x in row] for row in data]
        self.den, self.rows, self.cols = den, len(data), cols

    @classmethod
    def from_integers(cls, nums: List[List[int]], den: int, cols: int) -> "Matrix":
        """The matrix nums / den (den > 0, ``cols`` columns), brought to lowest
        terms.  The matrix may keep ``nums`` itself: the caller hands it over."""
        g = den
        for row in nums:
            if g == 1:
                break
            g = gcd(g, *row)
        if g > 1:
            nums = [[x // g for x in row] for row in nums]
            den //= g
        m = cls.__new__(cls)
        m.nums, m.den, m.rows, m.cols = nums, den, len(nums), cols
        return m

    @classmethod
    def _over_rows(cls, rows: Iterable[Tuple[List[int], int]], cols: int) -> "Matrix":
        """The matrix whose rows are nums_i / d_i for the pairs (nums_i, d_i), d_i != 0."""
        rows = list(rows)
        den = lcm(*(d for _nums, d in rows))
        return cls.from_integers([[x * (den // d) for x in nums] for nums, d in rows],
                                 den, cols)

    @classmethod
    def identity(cls, n: int) -> "Matrix":
        return cls.from_integers([[int(i == j) for j in range(n)] for i in range(n)], 1, n)

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "Matrix":
        return cls.from_integers([[0] * cols for _ in range(rows)], 1, cols)

    @property
    def data(self) -> List[Vector]:
        """The entries as fresh Fraction rows."""
        den = self.den
        return [[Fraction(x, den) for x in row] for row in self.nums]

    def __eq__(self, other) -> bool:
        return (isinstance(other, Matrix) and self.cols == other.cols
                and self.den == other.den and self.nums == other.nums)

    def __getitem__(self, ij: Tuple[int, int]) -> Fraction:
        return Fraction(self.nums[ij[0]][ij[1]], self.den)

    def col(self, j: int) -> Vector:
        return [Fraction(r[j], self.den) for r in self.nums]

    def transpose(self) -> "Matrix":
        nums = [list(c) for c in zip(*self.nums)] if self.rows else [[] for _ in range(self.cols)]
        return Matrix.from_integers(nums, self.den, self.rows)

    def _combine(self, other: "Matrix", sign: int) -> "Matrix":
        """self + sign*other over the lcm of the two denominators."""
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch")
        den = lcm(self.den, other.den)
        a, b = den // self.den, sign * (den // other.den)
        return Matrix.from_integers([[a * x + b * y for x, y in zip(r1, r2)]
                                     for r1, r2 in zip(self.nums, other.nums)], den, self.cols)

    def __add__(self, other: "Matrix") -> "Matrix":
        return self._combine(other, 1)

    def __sub__(self, other: "Matrix") -> "Matrix":
        return self._combine(other, -1)

    def scale(self, c) -> "Matrix":
        c = _fr(c)
        if not c:
            return Matrix.zeros(self.rows, self.cols)
        a = c.numerator
        return Matrix.from_integers([[a * x for x in row] for row in self.nums],
                                    self.den * c.denominator, self.cols)

    def __mul__(self, other: "Matrix") -> "Matrix":
        """Integer dot products of the left rows and the right columns over the
        product of the two denominators."""
        if self.cols != other.rows:
            raise ValueError("shape mismatch")
        right = list(zip(*other.nums)) if other.rows else [()] * other.cols
        return Matrix.from_integers([[sum(map(mul, r, c)) for c in right] for r in self.nums],
                                    self.den * other.den, other.cols)

    def is_zero(self) -> bool:
        return not any(map(any, self.nums))

    def __repr__(self) -> str:
        return f"Matrix({self.rows}x{self.cols})"


def _integer_row(row: Mapping[int, Fraction]) -> Dict[int, int]:
    """The nonzero entries of a sparse rational row ``{column: value}``, cleared
    over their common denominator."""
    entries = {j: c for j, c in row.items() if c}
    den = lcm(*(c.denominator for c in entries.values()))
    return {j: c.numerator * (den // c.denominator) for j, c in entries.items()}


def _sparse(nums: Sequence[int]) -> Dict[int, int]:
    """The nonzero entries of a dense integer row, by column."""
    return {j: x for j, x in enumerate(nums) if x}


def _primitive(row: Dict[int, int]) -> Dict[int, int]:
    """``row`` divided by the gcd of its entries."""
    g = gcd(*row.values())
    return row if g <= 1 else {j: c // g for j, c in row.items()}


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


def _echelon(rows: Iterable[Dict[int, int]], cols: int) -> Dict[int, Dict[int, int]]:
    """Primitive integer pivot rows of the span of sparse integer rows
    ``{column: value}`` with no zero value, keyed by their smallest column.

    Each row is divided by its content and reduced fraction-free against the
    stored pivot rows (see ``_eliminate``); the rows are consumed, and may be
    changed in place.  Primitive integer rows are independent over Z iff they
    are over Q, so the result is exact, and its keys are the leading columns of
    the span.  Returns as soon as every column is a pivot, taking no further row
    from ``rows``.
    """
    pivots: Dict[int, Dict[int, int]] = {}
    if cols <= 0:
        return pivots
    for row in rows:
        vec = _primitive(row)
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


def _reduced(rows: Iterable[Dict[int, int]], width: int,
             cols: int) -> Tuple[List[int], Dict[int, Dict[int, int]]]:
    """(pivots, echelon): the ``_echelon`` rows of integer rows with ``width``
    columns, and its sorted pivots below ``cols``, whose rows are cleared on the
    later such pivots (back-substitution).  Row k of the RREF of the first
    ``cols`` columns is echelon[pivots[k]] over its entry in column pivots[k]."""
    echelon = _echelon(rows, width)
    pivots = sorted(p for p in echelon if p < cols)
    for k in reversed(range(len(pivots))):
        row = echelon[pivots[k]]
        for q in pivots[k + 1:]:
            if q in row:
                row = _eliminate(row, echelon[q], q)
        echelon[pivots[k]] = row
    return pivots, echelon


def _dense(row: Mapping[int, int], start: int, stop: int, scale: int = 1) -> List[int]:
    return [row.get(j, 0) * scale for j in range(start, stop)]


def _pivot_rows(pivots: List[int], echelon: Dict[int, Dict[int, int]],
                cols: int) -> List[Tuple[List[int], int]]:
    """The nonzero rows of the RREF from ``_reduced``, as (nums, den) pairs."""
    return [(_dense(echelon[p], 0, cols), echelon[p][p]) for p in pivots]


def row_reduce(M: Matrix) -> Tuple[Matrix, List[int]]:
    """(R, pivots) of ``rref`` without the transform: the same step, run on the
    rows of M alone."""
    pivots, echelon = _reduced(map(_sparse, M.nums), M.cols, M.cols)
    rows = _pivot_rows(pivots, echelon, M.cols) + [([0] * M.cols, 1)] * (M.rows - len(pivots))
    return Matrix._over_rows(rows, M.cols), pivots


def rref(M: Matrix) -> Tuple[Matrix, List[int], Matrix]:
    """Reduced row echelon form.

    Returns (R, pivots, T) with R = T*M, T invertible, pivots strictly increasing.
    The step of ``row_reduce`` runs on the integer rows of [den*M | I] and is
    split into R and T; T carries den, since R = T * (nums / den).  R is the
    canonical RREF, and so is T when M has full row rank; below the rank, the
    rows of T are a basis of the left kernel.
    """
    n, cols = M.rows, M.cols
    pivots, echelon = _reduced(({**_sparse(row), cols + i: 1} for i, row in enumerate(M.nums)),
                               cols + n, cols)
    rows = [(echelon[p], echelon[p][p] if p < cols else 1) for p in sorted(echelon)]
    R = Matrix._over_rows(((_dense(row, 0, cols), d) for row, d in rows), cols)
    T = Matrix._over_rows(((_dense(row, cols, cols + n, M.den), d) for row, d in rows), n)
    return R, pivots, T


def leading_minors(M: Matrix) -> List[Fraction]:
    """det M_1, det M_2, ... of the leading k x k blocks M_k of a square matrix,
    up to and including the first zero.

    One ``_echelon`` pass over the integer rows of [den*M | I]: while the minors
    are nonzero, the pivot row at column k is the reduction of row k, so its
    last transform entry is at column n + k, and its entry at column k over
    den times that one is det M_{k+1} / det M_k (a Schur complement).  Once
    det M_{k+1} = 0, column k is left to no pivot or to a later row's.
    """
    n = M.rows
    if n != M.cols:
        raise ValueError("square matrix required")
    echelon = _echelon(({**_sparse(row), n + i: 1} for i, row in enumerate(M.nums)), 2 * n)
    minors, d = [], Fraction(1)
    for k in range(n):
        row = echelon.get(k)
        if row is None or max(row) != n + k:
            minors.append(Fraction(0))
            break
        d *= Fraction(row[k], row[n + k] * M.den)
        minors.append(d)
    return minors


def rank(M: Matrix) -> int:
    return len(_echelon(map(_sparse, M.nums), M.cols))


def _kernel(rows: Iterable[Sequence[int]], cols: int) -> Tuple[List[List[int]], int]:
    """(K, L): integer rows K and a denominator L > 0 such that K / L is the
    canonical basis of the right kernel of the integer rows, one vector per
    free column f, with 1 at f and 0 at the other free columns."""
    pivots, echelon = _reduced(map(_sparse, rows), cols, cols)
    L = lcm(*(echelon[p][p] for p in pivots))
    heads = [(p, echelon[p], L // echelon[p][p]) for p in pivots]
    kernel = []
    for f in range(cols):
        if f in echelon:
            continue
        v = [0] * cols
        v[f] = L
        for p, row, s in heads:
            if f in row:
                v[p] = -row[f] * s
        kernel.append(v)
    return kernel, L


def kernel_basis(M: Matrix) -> Matrix:
    """Rows span the right kernel {x : M x = 0}. Empty kernel gives a 0 x cols matrix."""
    kernel, L = _kernel(M.nums, M.cols)
    return Matrix.from_integers(kernel, L, M.cols)


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


def restrict(ops: Sequence[Matrix], basis: Matrix) -> List[Matrix]:
    """Matrices of the operators ``ops`` on the span of the independent ``basis`` rows.

    Invariance: with one RREF R = T*basis for all of them, an image v lies in the
    span iff v == sum_r v[p_r] R_r, and then its coordinates are v[pivots] * T.
    """
    R, pivots, T = rref(basis)
    if len(pivots) != basis.rows:
        raise ValueError("basis rows are linearly dependent")
    restricted = []
    for M in ops:
        images = basis * M.transpose()
        heads = Matrix.from_integers([[v[p] for p in pivots] for v in images.nums],
                                     images.den, len(pivots))
        if heads * R != images:
            raise ValueError("subspace is not invariant under the operator")
        restricted.append((heads * T).transpose())
    return restricted


def subspace_intersection(A: Matrix, B: Matrix) -> Matrix:
    """Rows span (row space of A)' intersected with (row space of B)'.

    Inputs and output use rows-as-vectors.
    """
    if A.rows == 0 or B.rows == 0:
        return Matrix.zeros(0, A.cols)
    # x = A^T u = B^T v  <=>  [A^T | -B^T] (u,v) = 0; over the integer rows of A
    # and B this only rescales u and v, and so x
    columns = list(zip(*A.nums))
    stacked = [list(a) + [-y for y in b] for a, b in zip(columns, zip(*B.nums))]
    kernel, _L = _kernel(stacked, A.rows + B.rows)
    # each x = u * A.nums; map(mul, v, c) stops at the end of the column, so it reads u
    rows = [x for x in ([sum(map(mul, v, c)) for c in columns] for v in kernel) if any(x)]
    pivots, echelon = _reduced(map(_sparse, rows), A.cols, A.cols)
    return Matrix._over_rows(_pivot_rows(pivots, echelon, A.cols), A.cols)
