import random
from fractions import Fraction as F
from math import gcd
from typing import Dict, List

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from instanton import linalg
from instanton.linalg import (Matrix, det, generalized_eigenspace, kernel_basis, rank,
                              restrict, row_reduce, rref,
                              subspace_intersection)
from oracles import (apply, char_poly, det_fraction_oracle, eigen_multiplicities,
                     generalized_eigenspace_dim, is_nilpotent_on, matrix_power, row_rank, solve)


def test_identity_rank_and_kernel():
    m = Matrix.identity(3)
    assert rank(m) == 3
    ker = kernel_basis(m)
    assert (ker.rows, ker.cols) == (0, 3)


def test_empty_matrix_keeps_column_count():
    z = Matrix.zeros(0, 5)
    assert (z.rows, z.cols) == (0, 5)
    assert z.scale(2).cols == 5
    zt = z.transpose()
    assert (zt.rows, zt.cols) == (5, 0)
    assert (zt.transpose().rows, zt.transpose().cols) == (0, 5)
    prod = z * Matrix.identity(5)
    assert (prod.rows, prod.cols) == (0, 5)
    R, pivots, _T = rref(z)
    assert (R.rows, R.cols, pivots) == (0, 5, [])
    # equality sees the column count of a matrix with no rows
    assert z == Matrix.zeros(0, 5)
    assert z != Matrix.zeros(0, 3)


def test_rank_one_kernel():
    m = Matrix([[1, 2], [2, 4]])
    assert rank(m) == 1
    ker = kernel_basis(m)
    assert ker.rows == 1
    v = ker.row(0)
    # spanned by (-2, 1)
    assert v[0] * 1 == -2 * v[1]
    assert apply(m, v) == [0, 0]


def test_rank_nullity_on_random(rand=None):
    rng = random.Random(7)
    m = Matrix([[F(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(20)]
                for _ in range(20)])
    assert rank(m) + kernel_basis(m).rows == 20


def test_rref_transform():
    rng = random.Random(11)
    m = Matrix([[F(rng.randint(-9, 9)) for _ in range(8)] for _ in range(6)])
    r, _pivots, t = rref(m)
    assert t * m == r
    assert rank(Matrix(t.data)) == 6  # transform invertible


def test_generalized_eigenspace_jordan_block():
    j = Matrix([[2, 1], [0, 2]])
    assert generalized_eigenspace_dim(j, 2) == 2
    assert kernel_basis(j - Matrix.identity(2).scale(2)).rows == 1


def test_nilpotent_detection():
    n = Matrix([[0, 1, 2], [0, 0, 3], [0, 0, 0]])
    basis = Matrix.identity(3)
    assert is_nilpotent_on(n, basis)
    assert not is_nilpotent_on(Matrix.identity(3), basis)


def test_diagonal_eigen_dims():
    d = Matrix([[1, 0], [0, -3]])
    assert generalized_eigenspace_dim(d, 1) == 1
    assert generalized_eigenspace_dim(d, -3) == 1
    assert generalized_eigenspace_dim(d, 5) == 0


def test_restrict_and_invariance_error():
    m = Matrix([[1, 1, 0], [0, 1, 0], [0, 0, 2]])
    inv = Matrix([[1, 0, 0], [0, 1, 0]])
    assert restrict([m], inv) == [Matrix([[1, 1], [0, 1]])]
    with pytest.raises(ValueError):
        restrict([Matrix([[0, 1, 0], [0, 0, 1], [1, 0, 0]])], Matrix([[1, 0, 0]]))
    # every operator is checked, not only the first
    with pytest.raises(ValueError):
        restrict([m, Matrix([[0, 0, 1], [0, 1, 0], [1, 0, 0]])], inv)


def test_solve_and_inconsistency():
    m = Matrix([[1, 2], [3, 4]])
    x = solve(m, [5, 11])
    assert apply(m, x) == [5, 11]
    assert solve(Matrix([[1, 1], [1, 1]]), [0, 1]) is None


def test_subspace_intersection():
    a = Matrix([[1, 0, 0], [0, 1, 0]])
    b = Matrix([[0, 1, 0], [0, 0, 1]])
    inter = subspace_intersection(a, b)
    assert inter.rows == 1
    v = inter.row(0)
    assert v[0] == 0 and v[2] == 0 and v[1] != 0
    # an empty side, or a trivial intersection, gives 0 x cols
    for left, right in ((Matrix.zeros(0, 3), b), (a, Matrix.zeros(0, 3)),
                        (Matrix([[1, 0, 0]]), Matrix([[0, 0, 1]]))):
        empty = subspace_intersection(left, right)
        assert (empty.rows, empty.cols) == (0, 3)


def test_char_poly_diagonal():
    d = Matrix([[1, 0], [0, -3]])
    # det(xI - M) = (x-1)(x+3) = x^2 + 2x - 3
    assert char_poly(d) == [F(-3), F(2), F(1)]


def test_kernel_powers_stabilize():
    j = Matrix([[2, 1, 0], [0, 2, 0], [0, 0, 5]])
    dims = []
    shifted = j - Matrix.identity(3).scale(2)
    prev = 0
    for k in range(1, 4):
        d = kernel_basis(matrix_power(shifted, k)).rows
        assert d >= prev
        prev = d
        dims.append(d)
    assert dims == [1, 2, 2]


# -- the factor-once eigen helpers against the direct forms they replace ------------


def _power_oracle(M, lam):
    n = M.rows
    return matrix_power(M - Matrix.identity(n).scale(lam), n)


def _restrict_oracle(M, basis):
    """One solve per basis vector, as restrict did before it factored the basis once."""
    bt = basis.transpose()
    cols = []
    for b in basis.data:
        c = solve(bt, apply(M, b))
        if c is None:
            raise ValueError("subspace is not invariant under the operator")
        cols.append(c)
    k = basis.rows
    return Matrix([[cols[j][i] for j in range(k)] for i in range(k)])


def _jordan(blocks):
    """Block-diagonal Jordan matrix from (eigenvalue, size) pairs."""
    n = sum(size for _lam, size in blocks)
    rows = [[F(0)] * n for _ in range(n)]
    start = 0
    for lam, size in blocks:
        for i in range(start, start + size):
            rows[i][i] = F(lam)
            if i + 1 < start + size:
                rows[i][i + 1] = F(1)
        start += size
    return Matrix(rows)


def _conjugated(blocks, seed):
    """P J P^-1 for a random invertible P, so that the entries are not all 0/1."""
    J = _jordan(blocks)
    rng = random.Random(seed)
    while True:
        P = Matrix([[F(rng.randint(-3, 3)) for _ in range(J.rows)] for _ in range(J.rows)])
        _R, pivots, P_inv = rref(P)
        if len(pivots) == J.rows:
            return P * J * P_inv


# nilpotency index of M - 2 is 1, 3 and 5; the last is the whole dimension
JORDAN_CASES = [
    [(2, 1), (2, 1), (-1, 2)],
    [(2, 3), (2, 1), (0, 2)],
    [(2, 5)],
]
LAMBDAS = [2, -1, 0, F(7, 3)]  # 7/3 is an eigenvalue of none of them


@pytest.mark.parametrize("blocks", JORDAN_CASES)
@pytest.mark.parametrize("conjugate", [False, True])
def test_generalized_eigenspace_matches_full_power(blocks, conjugate):
    M = _conjugated(blocks, seed=len(blocks)) if conjugate else _jordan(blocks)
    for lam in LAMBDAS:
        expected_dim = sum(size for mu, size in blocks if mu == lam)
        direct = _power_oracle(M, lam)
        assert generalized_eigenspace(M, lam) == kernel_basis(direct)
        assert generalized_eigenspace_dim(M, lam) == M.rows - rank(direct) == expected_dim


@pytest.mark.parametrize("blocks", JORDAN_CASES)
@pytest.mark.parametrize("conjugate", [False, True])
def test_restrict_and_nilpotency_match_per_vector_solve(blocks, conjugate):
    M = _conjugated(blocks, seed=len(blocks)) if conjugate else _jordan(blocks)
    for lam in LAMBDAS:
        basis = generalized_eigenspace(M, lam)
        if basis.rows == 0:
            assert is_nilpotent_on(M, basis)
            continue
        shifted = M - Matrix.identity(M.rows).scale(lam)
        # one factorisation of the basis serves both operators
        restricted = restrict([M, shifted], basis)
        assert restricted == [_restrict_oracle(M, basis), _restrict_oracle(shifted, basis)]
        for op, res in zip((M, shifted), restricted):
            assert is_nilpotent_on(op, basis) == matrix_power(res, basis.rows).is_zero()
        assert is_nilpotent_on(shifted, basis)
        assert is_nilpotent_on(M, basis) == (lam == 0)


def test_nilpotency_needs_full_index():
    # a single Jordan block of size 5 at 0: J^4 != 0, so squaring must reach 8 >= 5
    J = _jordan([(0, 5)])
    assert matrix_power(J, 4) != Matrix.zeros(5, 5)
    assert is_nilpotent_on(J, Matrix.identity(5))
    # with the eigenvalue 1 no power is zero; squaring gives up at 8 >= 5
    K = _jordan([(0, 4), (1, 1)])
    assert not is_nilpotent_on(K, Matrix.identity(5))


def test_restrict_rejects_dependent_basis_rows():
    m = Matrix([[1, 1, 0], [0, 1, 0], [0, 0, 2]])
    with pytest.raises(ValueError, match="dependent"):
        restrict([m], Matrix([[1, 0, 0], [0, 1, 0], [1, 1, 0]]))
    with pytest.raises(ValueError, match="dependent"):
        restrict([m], Matrix([[1, 0, 0], [2, 0, 0]]))


# -- the matrix-route oracle: multiplicities from traces and one annihilation product --


@pytest.mark.parametrize("blocks", JORDAN_CASES)
@pytest.mark.parametrize("conjugate", [False, True])
def test_eigen_multiplicities_match_stable_power_oracle(blocks, conjugate):
    M = _conjugated(blocks, seed=len(blocks)) if conjugate else _jordan(blocks)
    spectrum = sorted({lam for lam, _size in blocks})
    oracle = [generalized_eigenspace_dim(M, lam) for lam in spectrum]
    assert eigen_multiplicities(M, spectrum) == oracle
    assert eigen_multiplicities(M, spectrum[::-1]) == oracle[::-1]
    # a value of Lambda outside the spectrum gets multiplicity 0, wherever it stands
    for extra in (lam for lam in LAMBDAS if lam not in spectrum):
        assert eigen_multiplicities(M, spectrum + [extra]) == oracle + [0]
        assert eigen_multiplicities(M, [extra] + spectrum) == [0] + oracle
    # an eigenvalue outside Lambda is refused: 7/3 stands in for each one in turn
    for i in range(len(spectrum)):
        assert eigen_multiplicities(M, spectrum[:i] + [F(7, 3)] + spectrum[i + 1:]) is None


def test_eigen_multiplicities_refuse_by_product_and_by_integrality():
    # a single 5-block at 2 read as {7/3}: m = tr(I) = 5 is an integer, the product is not 0
    assert eigen_multiplicities(_jordan([(2, 5)]), [F(7, 3)]) is None
    # spectrum {2, 2, -1, -1} read as {2, 7/3}: m_2 + m = 4, 2 m_2 + 7/3 m = 2 gives m = -18
    assert eigen_multiplicities(_jordan([(2, 2), (-1, 2)]), [2, F(7, 3)]) is None
    # read as {-1, 7/3}: 10/3 m = 6 gives m = 9/5
    assert eigen_multiplicities(_jordan([(2, 2), (-1, 2)]), [-1, F(7, 3)]) is None


def test_eigen_multiplicities_when_the_index_is_below_the_multiplicity():
    # at 2: blocks of size 3 and 1, so multiplicity 4 and nilpotency index 3
    M = _conjugated([(2, 3), (2, 1), (0, 2)], seed=5)
    shifted = M - Matrix.identity(6).scale(2)
    assert (matrix_power(shifted, 3) * matrix_power(M, 2)).is_zero()
    assert not (matrix_power(shifted, 2) * matrix_power(M, 2)).is_zero()
    assert eigen_multiplicities(M, [2, 0]) == [4, 2]
    # a scalar matrix: index 1, multiplicity 3
    assert eigen_multiplicities(Matrix.identity(3).scale(F(-5, 2)), [F(-5, 2)]) == [3]


def test_eigen_multiplicities_edges():
    assert eigen_multiplicities(Matrix.zeros(0, 0), []) == []
    assert eigen_multiplicities(Matrix.zeros(0, 0), [1, 2]) == [0, 0]
    assert eigen_multiplicities(Matrix.identity(2), []) is None
    assert eigen_multiplicities(Matrix([[3]]), [3]) == [1]
    with pytest.raises(ValueError, match="distinct"):
        eigen_multiplicities(Matrix.identity(2), [1, F(2, 2)])


# -- the integer rank kernel against Fraction oracles --------------------------------


def span_rank_oracle(vectors: List[List[F]]) -> int:
    """Rank of dense vectors by streaming sparse elimination over Fraction with
    unit-led pivot rows (the graded rank routine the integer kernel replaced)."""
    echelon: Dict[int, Dict[int, F]] = {}
    for vec in vectors:
        row = {i: c for i, c in enumerate(vec) if c}
        while row:
            p = min(row)
            if p in echelon:
                f = row[p]
                for j, c in echelon[p].items():
                    s = row.get(j, F(0)) - f * c
                    if s:
                        row[j] = s
                    else:
                        row.pop(j, None)
            else:
                inv = F(1) / row[p]
                echelon[p] = {j: c * inv for j, c in row.items()}
                break
    return len(echelon)


def _dense(rows, cols):
    return [[row.get(j, F(0)) for j in range(cols)] for row in rows]


def assert_rank_matches_oracles(rows, cols) -> int:
    """row_rank of sparse rows equals the Fraction oracle and the RREF pivot count."""
    dense = _dense(rows, cols)
    got = row_rank(iter(rows), cols)
    assert got == span_rank_oracle(dense)
    assert got == len(rref(Matrix(dense, cols))[1])
    return got


def _random_rows(rng, count, cols, density=0.4, num=9, den=5):
    rows = []
    for _ in range(count):
        row = {}
        for j in range(cols):
            if rng.random() < density:
                row[j] = F(rng.randint(-num, num), rng.randint(1, den))
        rows.append(row)
    return rows


def test_row_rank_edge_cases():
    assert row_rank([], 4) == 0
    assert row_rank([], 0) == 0
    assert row_rank([{}, {2: F(0)}], 3) == 0
    assert row_rank([{0: F(1)}], 0) == 0   # no columns: rank 0, no row read
    assert row_rank([{1: F(3, 7)}, {1: F(-6, 5)}, {1: F(9)}], 2) == 1
    # a duplicate, a multiple and a negated sum add nothing
    a, b = {0: F(1, 2), 2: F(-3)}, {1: F(5, 3), 2: F(7)}
    dup = [a, b, dict(a), {j: 4 * c for j, c in b.items()},
           {0: -a[0], 1: -b[1], 2: -a[2] - b[2]}]
    assert assert_rank_matches_oracles(dup, 3) == 2
    assert rank(Matrix.zeros(0, 3)) == rank(Matrix.zeros(2, 3)) == 0


def test_row_rank_large_coprime_denominators():
    p, q, r = 2 ** 61 - 1, 10 ** 18 + 9, 998244353
    a, b = {0: F(1, p), 1: F(-1, q)}, {0: F(q, r), 2: F(-r, p * q)}
    # x*a + y*b with large coprime x, y, and a/r (an explicit zero entry kept)
    x, y = F(p, r), F(-7, q)
    combo = {j: x * a.get(j, F(0)) + y * b.get(j, F(0)) for j in range(3)}
    rows = [a, b, combo, {0: F(1, p * r), 1: F(-1, q * r), 2: F(0)}]
    assert assert_rank_matches_oracles(rows, 3) == 2
    assert assert_rank_matches_oracles(rows + [{1: F(1, r), 2: F(-p, q)}], 3) == 3


@pytest.mark.parametrize("seed", range(12))
def test_row_rank_matches_oracles_on_random_sparse_rows(seed):
    rng = random.Random(seed)
    cols = rng.randint(1, 12)
    base = _random_rows(rng, rng.randint(0, cols), cols)
    # rank-deficient stacks: random combinations of fewer rows, zero rows mixed in
    mixed = []
    for _ in range(rng.randint(0, 2 * cols)):
        combo: Dict[int, F] = {}
        for row in base:
            f = F(rng.randint(-3, 3), rng.randint(1, 4))
            for j, c in row.items():
                combo[j] = combo.get(j, F(0)) + f * c
        mixed.append({j: c for j, c in combo.items() if c})
    rows = base + mixed + [{}]
    rng.shuffle(rows)
    assert assert_rank_matches_oracles(rows, cols) <= len(base)


def test_row_rank_stops_at_full_column_rank():
    rng = random.Random(5)
    cols = 6
    rows = _random_rows(rng, 30, cols, density=0.7)
    full = next(k for k in range(1, len(rows) + 1)
                if span_rank_oracle(_dense(rows[:k], cols)) == cols)
    assert full < len(rows)
    assert assert_rank_matches_oracles(rows, cols) == cols
    taken = []

    def lazy():
        for k, row in enumerate(rows):
            taken.append(k)
            yield row
    it = lazy()
    assert row_rank(it, cols) == cols
    # the row that completed the rank was the last one read
    assert taken == list(range(full))
    assert next(it) is rows[full]


def test_row_rank_reads_no_row_without_columns():
    def boom():
        raise AssertionError("a row was read")
        yield {}
    assert row_rank(boom(), 0) == 0


_entries = st.fractions(min_value=-50, max_value=50, max_denominator=10 ** 6)


@settings(max_examples=150)
@given(st.integers(0, 7).flatmap(lambda cols: st.tuples(
    st.just(cols),
    st.lists(st.dictionaries(st.integers(0, max(cols - 1, 0)), _entries,
                             max_size=cols), max_size=12))))
def test_row_rank_property_against_oracles(case):
    cols, rows = case
    rows = [row if cols else {} for row in rows]
    # duplicates and sums of earlier rows keep the stacks rank-deficient
    if len(rows) > 1:
        rows.append(dict(rows[0]))
        rows.append({j: rows[0].get(j, F(0)) - rows[1].get(j, F(0))
                     for j in set(rows[0]) | set(rows[1])})
    assert assert_rank_matches_oracles(rows, cols) <= min(cols, len(rows))


# -- the dense integer kernels against the Fraction bodies they replaced -------------


def rref_fraction_oracle(M: Matrix):
    """Gauss-Jordan with the transform over Fraction (the rref body before the
    integer rows); the pivot is the entry of fewest numerator plus denominator
    bits, ties to the earliest row."""
    a = [list(row) for row in M.data]
    t = [[F(int(i == j)) for j in range(M.rows)] for i in range(M.rows)]
    pivots: List[int] = []
    r = 0
    for c in range(M.cols):
        cand = [i for i in range(r, M.rows) if a[i][c]]
        if not cand:
            continue
        p = min(cand, key=lambda i: (a[i][c].numerator.bit_length()
                                     + a[i][c].denominator.bit_length(), i))
        a[r], a[p] = a[p], a[r]
        t[r], t[p] = t[p], t[r]
        inv = F(1) / a[r][c]
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
    return Matrix(a, M.cols), pivots, Matrix(t, M.rows)


def matmul_oracle(A: Matrix, B: Matrix) -> Matrix:
    """Entry by entry Fraction dot products (the Matrix.__mul__ body before the
    integer rows)."""
    if A.cols != B.rows:
        raise ValueError("shape mismatch")
    bt = [[row[j] for row in B.data] for j in range(B.cols)]
    return Matrix([[sum(a * b for a, b in zip(row, col) if a and b) for col in bt]
                   for row in A.data], B.cols)


def assert_rref_matches_oracle(M: Matrix) -> int:
    """Same R and pivots as the oracle; T*M == R with T invertible; the same T
    when M has full row rank.  Returns the rank."""
    R0, p0, T0 = rref_fraction_oracle(M)
    R, pivots, T = rref(M)
    assert (R, pivots) == (R0, p0)
    assert (T.rows, T.cols) == (M.rows, M.rows)
    assert T * M == R
    assert rank(T) == M.rows
    if len(pivots) == M.rows:
        assert T == T0
    return len(p0)


def assert_products_match_oracle(A: Matrix, B: Matrix) -> None:
    assert A * B == matmul_oracle(A, B)
    for v in B.transpose().data:
        assert apply(A, v) == [row[0] for row in matmul_oracle(A, Matrix([[x] for x in v], 1)).data]


def _random_matrix(rng, rows, cols, density=0.6, num=9, den=5) -> Matrix:
    return Matrix(_dense(_random_rows(rng, rows, cols, density, num, den), cols), cols)


def _rank_deficient(rng, rows, cols, rank_bound) -> Matrix:
    """rows combinations of rank_bound random rows, with a zero row mixed in."""
    base = _random_matrix(rng, rank_bound, cols)
    coeffs = _random_matrix(rng, rows, rank_bound, density=0.8, num=4, den=3)
    data = matmul_oracle(coeffs, base).data
    data[rng.randrange(rows)] = [F(0)] * cols
    return Matrix(data, cols)


@pytest.mark.parametrize("seed", range(12))
def test_rref_and_products_match_fraction_oracles_on_random_matrices(seed):
    rng = random.Random(1000 + seed)
    n, m = rng.randint(1, 7), rng.randint(1, 7)
    tall = _random_matrix(rng, n + m, n)
    wide = _random_matrix(rng, n, n + m)
    square = _random_matrix(rng, n, n, density=0.9)
    deficient = _rank_deficient(rng, n + 2, m + 1, min(n, m))
    for M in (tall, wide, square):
        assert_rref_matches_oracle(M)
        assert_rref_matches_oracle(M.transpose())
    assert assert_rref_matches_oracle(deficient) <= min(n, m)
    assert assert_rref_matches_oracle(deficient.transpose()) <= min(n, m)
    assert_products_match_oracle(tall, wide)
    assert_products_match_oracle(wide, tall)
    assert_products_match_oracle(square, square)
    assert_products_match_oracle(deficient, _random_matrix(rng, m + 1, n))


def test_rref_and_products_on_empty_and_zero_shapes():
    for M in (Matrix.zeros(0, 4), Matrix.zeros(0, 0), Matrix([[], [], []]),
              Matrix.zeros(3, 4), Matrix([[0, 0], [0, 5], [0, 0]])):
        assert_rref_matches_oracle(M)
    R, pivots, T = rref(Matrix([[], []]))
    assert (R.rows, R.cols, pivots, T) == (2, 0, [], Matrix.identity(2))
    # 0 x n and n x 0 factors
    shapes = [(Matrix.zeros(0, 3), Matrix.zeros(3, 2)), (Matrix([[], []]), Matrix.zeros(0, 3)),
              (Matrix.zeros(2, 3), Matrix.zeros(3, 0)), (Matrix.zeros(0, 0), Matrix.zeros(0, 0))]
    for A, B in shapes:
        prod = A * B
        assert prod == matmul_oracle(A, B)
        assert (prod.rows, prod.cols) == (A.rows, B.cols)
    assert apply(Matrix([[], []]), []) == [0, 0]
    with pytest.raises(ValueError):
        Matrix.zeros(2, 3) * Matrix.zeros(2, 3)


def test_rref_and_products_with_large_coprime_denominators():
    p, q, r = 2 ** 61 - 1, 10 ** 18 + 9, 998244353
    a = [F(1, p), F(-1, q), F(0), F(r, p * q)]
    b = [F(q, r), F(0), F(-r, p * q), F(-7, p)]
    combo = [F(p, r) * x - F(7, q) * y for x, y in zip(a, b)]
    M = Matrix([a, b, combo, [F(-1, r), F(p, q), F(1, p * r), F(0)]])
    assert assert_rref_matches_oracle(M) == 3
    assert assert_rref_matches_oracle(Matrix([a, b, [F(1, r), F(q, p), F(-1), F(2, q)]])) == 3
    assert_products_match_oracle(M, M.transpose())
    assert_products_match_oracle(M.transpose(), M)


def test_restrict_to_the_zero_subspace():
    m = Matrix([[1, 1, 0], [0, 1, 0], [0, 0, 2]])
    r, = restrict([m], Matrix.zeros(0, 3))
    assert (r.rows, r.cols) == (0, 0)


def test_rref_and_products_on_model_operators():
    from instanton.floer import ALPHA, model_for
    model = model_for(3, "+")
    beta, alpha = model.operator("beta"), model.operator(ALPHA)
    shifted = beta - Matrix.identity(model.dim).scale(2)
    for M in (beta, alpha, shifted):
        assert_rref_matches_oracle(M)
    assert assert_rref_matches_oracle(shifted) < model.dim
    for A, B in ((beta, alpha), (alpha, beta), (shifted, shifted)):
        assert_products_match_oracle(A, B)
    space = generalized_eigenspace(beta, 2)
    assert_rref_matches_oracle(space)
    assert_products_match_oracle(space, alpha.transpose())


def assert_canonical(M: Matrix) -> None:
    """nums / den in lowest terms with den > 0 (so den = 1 for the zero matrix)."""
    assert M.den > 0 and len(M.nums) == M.rows
    assert all(len(row) == M.cols for row in M.nums)
    assert gcd(M.den, *(x for row in M.nums for x in row)) == 1


def assert_entrywise_match_oracle(A: Matrix, B: Matrix, c: F) -> None:
    """transpose, +, -, scale and det against Fraction bodies, entry by entry."""
    a, b = A.data, B.data
    results = [
        (A.transpose(), [[a[i][j] for i in range(A.rows)] for j in range(A.cols)]),
        (A + B, [[x + y for x, y in zip(r, s)] for r, s in zip(a, b)]),
        (A - B, [[x - y for x, y in zip(r, s)] for r, s in zip(a, b)]),
        (A.scale(c), [[c * x for x in r] for r in a]),
    ]
    for got, want in results:
        assert_canonical(got)
        assert got.data == want
    k = min(A.rows, A.cols)
    square = Matrix([r[:k] for r in a[:k]], k)
    assert det(square) == det_fraction_oracle(square)


@settings(max_examples=120)
@given(st.integers(0, 6).flatmap(lambda cols: st.tuples(
    st.just(cols),
    st.lists(st.lists(_entries, min_size=cols, max_size=cols), max_size=6),
    st.lists(_entries, min_size=cols, max_size=cols),
    _entries)))
def test_rref_and_products_property_against_oracles(case):
    cols, rows, extra, c = case
    # a sum of two rows keeps some stacks rank-deficient
    if len(rows) > 1:
        rows.append([x + y for x, y in zip(rows[0], rows[1])])
    M = Matrix(rows, cols)
    assert_canonical(M)
    assert assert_rref_matches_oracle(M) <= min(cols, M.rows)
    assert_products_match_oracle(M, M.transpose())
    assert_products_match_oracle(Matrix(rows + [extra], cols), M.transpose())
    assert_entrywise_match_oracle(M, Matrix(rows[::-1], cols), c)
    assert_entrywise_match_oracle(M.transpose(), M.transpose().scale(extra[0] if cols else 1), -c)


def test_canonical_form():
    assert Matrix([[F(2, 4)]]) == Matrix([[F(1, 2)]])
    assert (Matrix([[F(2, 4)]]).nums, Matrix([[F(2, 4)]]).den) == ([[1]], 2)
    A = Matrix([[F(1, 6), F(-2, 9)], [F(3, 4), 0]])
    assert (A.nums, A.den) == ([[6, -8], [27, 0]], 36)
    zero = A - A
    assert (zero.nums, zero.den) == ([[0, 0], [0, 0]], 1)
    assert zero == Matrix.zeros(2, 2)
    for c in (0, F(-3, 7), -2, F(36, 5)):
        scaled = A.scale(c)
        assert_canonical(scaled)
        assert scaled.data == [[c * x for x in row] for row in A.data]
    assert (A.scale(F(36, 5)).nums, A.scale(F(36, 5)).den) == ([[6, -8], [27, 0]], 5)
    assert A.scale(0) == Matrix.zeros(2, 2)
    # a product and a sum whose denominators cancel come back over 1
    assert A * Matrix.identity(2).scale(36) == Matrix(A.nums)
    assert (A + A.scale(35)).den == 1


def test_kernel_and_row_reduce_match_rref_on_tall_rank_deficient_matrices():
    """kernel_basis and row_reduce read only M's rows; they give the kernel and
    the (R, pivots) that rref's run on [M | I] gives."""
    rng = random.Random(23)
    cases = [_rank_deficient(rng, rows, cols, r) for rows, cols, r in
             ((9, 4, 2), (12, 6, 3), (8, 5, 1), (10, 7, 4))] + [Matrix.zeros(5, 3)]
    for M in cases:
        R, pivots, _T = rref(M)
        assert row_reduce(M) == (R, pivots)
        vectors = []
        for f in (j for j in range(M.cols) if j not in pivots):
            v = [F(int(j == f)) for j in range(M.cols)]
            for i, p in enumerate(pivots):
                v[p] = -R[i, f]
            vectors.append(v)
        ker = kernel_basis(M)
        assert ker == (Matrix(vectors) if vectors else Matrix.zeros(0, M.cols))
        assert ker.rows == M.cols - len(pivots) > 0
        assert (M * ker.transpose()).is_zero()


def test_products_differences_and_powers_build_no_fraction(monkeypatch):
    """Fractions are only the boundary: the dense hot path stays in integers,
    also through the repeated products of a power."""
    rng = random.Random(41)
    A, B = _random_matrix(rng, 6, 6, density=0.9), _random_matrix(rng, 6, 6, density=0.9)
    built = []

    class Counted(F):
        def __new__(cls, *args, **kwargs):
            built.append(args)
            return super().__new__(cls, *args, **kwargs)

    monkeypatch.setattr(linalg, "Fraction", Counted)
    product, _difference, _power = A * B, A - B, matrix_power(A, 5)
    assert built == []
    # the counter sees the boundary
    assert product[0, 0] == matmul_oracle(A, B)[0, 0] and built


def test_power_of_zero_is_the_identity_and_a_negative_exponent_is_refused():
    """The oracle's matrix_power, which the eigen oracles raise operators with."""
    M = Matrix([[2, 1], [0, F(1, 3)]])
    for A in (M, Matrix.zeros(2, 2), Matrix.zeros(0, 0)):
        assert matrix_power(A, 0) == Matrix.identity(A.rows)
    assert matrix_power(M, 3) == M * M * M
    for k in (-1, -2):
        with pytest.raises(ValueError, match="non-negative"):
            matrix_power(M, k)
