import hashlib
import json
import random
from fractions import Fraction as F

import pytest

from instanton import floer
from instanton.linalg import Matrix, det
from instanton.series import (COEFF_RING, RationalFn, SeriesT, a_table, beta_poly,
                              binom_sqrt_dets, exp_series, expand_rational_fn,
                              pow_binomial)
from instanton.poly import Poly
from oracles import (det_fraction_oracle, exp_series_by_powers, expand_by_long_division,
                     pow_binomial_by_powers, series_mul_by_convolution)


def c(x):
    return Poly.constant(COEFF_RING, x)


def test_geometric_series():
    assert expand_rational_fn(RationalFn([1], [2]), 6) == [1, 0, 1, 0, 1, 0, 1]


def test_quotient_series_small_genus():
    assert expand_rational_fn(floer.ptgn_series(1, 1), 4) == [1, 0, 1, 0, 0]


def test_k_series_example():
    assert expand_rational_fn(floer.k_series(0, 3), 8) == [0, 0, 4, 0, 8, 0, 12, 0, 16]


@pytest.mark.parametrize("g,n", [(0, 1), (1, 1), (2, 1), (0, 3), (1, 3), (0, 5), (2, 3)])
def test_long_division_oracle_agrees(g, n):
    """Second expansion path (multiply denominator out, divide) must agree."""
    for fn in (floer.ptgn_series, floer.total_series, floer.k_series):
        rf = fn(g, n)
        assert expand_rational_fn(rf, 30) == expand_by_long_division(rf, 30)


def omega_poly():
    return Poly.variable(COEFF_RING, "omega")


def test_pow_binomial_sqrt():
    one = SeriesT.constant(2, 1)
    t = SeriesT.term(2, 1, 1)
    s = pow_binomial(one + t, F(1, 2))
    assert s.coeffs == [c(1), c(F(1, 2)), c(F(-1, 8))]


def test_pow_binomial_beta():
    one = SeriesT.constant(2, 1)
    bt2 = SeriesT.term(2, 2, beta_poly())
    s = pow_binomial(one + bt2, F(-1, 2))
    assert s.coeffs[2] == beta_poly() * F(-1, 2)


def test_pow_binomial_requires_unit_constant():
    with pytest.raises(ValueError):
        pow_binomial(SeriesT.constant(2, 2), F(1, 2))


def test_exp_examples():
    n = 3
    assert exp_series(SeriesT(n)) == SeriesT.constant(n, 1)
    e = exp_series(SeriesT.term(n, 1, 1))
    assert e.coeffs == [c(1), c(1), c(F(1, 2)), c(F(1, 6))]


def _random_series(rand, order, constant):
    """A series with the given constant coefficient and random nonzero
    coefficients after it."""
    def coeff():
        return Poly.from_terms(COEFF_RING, [
            ((rand.randint(0, 2), rand.randint(0, 2), 0, 0),
             F(rand.randint(-5, 5) or 1, rand.randint(1, 4))) for _ in range(rand.randint(1, 3))])
    return SeriesT(order, [constant] + [coeff() for _ in range(order)])


@pytest.mark.parametrize("order", range(7))
def test_series_mul_matches_the_part_products_oracle(order):
    """Products and scalings of series with zero coefficients equal the
    convolution that forms every part product a_i b_j."""
    rand = random.Random(2100 + order)

    def sparse():
        f = _random_series(rand, order, c(rand.randint(0, 2)))
        return SeriesT(order, [rand.choice([x, c(0)]) for x in f.coeffs])
    for _ in range(3):
        a, b = sparse(), sparse()
        assert a * b == series_mul_by_convolution(a, b)
        for k in (F(-3, 2), omega_poly(), 0):
            assert a * k == series_mul_by_convolution(a, SeriesT.constant(order, k))


@pytest.mark.parametrize("order", range(9))
def test_kernels_match_the_summed_powers_oracle(order):
    rand = random.Random(1800 + order)
    for _ in range(2):
        base = _random_series(rand, order, c(1))
        for a in (F(0), F(-1), F(-3), F(1), F(4), F(1, 2), F(-3, 4), F(7, 3)):
            assert pow_binomial(base, a) == pow_binomial_by_powers(base, a)
        f = _random_series(rand, order, c(0))
        assert exp_series(f) == exp_series_by_powers(f)


# "even" constants are scalars, "odd" ones carry an omega term
@pytest.mark.parametrize("kernel,constant,message", [
    (lambda f: pow_binomial(f, F(1, 2)), c(2), "binomial power needs constant term 1"),
    (lambda f: pow_binomial(f, F(1, 2)), c(1) + omega_poly(),
     "binomial power needs constant term 1"),
    (exp_series, c(1), "exp needs zero constant term"),
    (exp_series, omega_poly(), "exp needs zero constant term"),
], ids=["pow_even", "pow_odd", "exp_even", "exp_odd"])
def test_kernels_keep_their_preconditions(kernel, constant, message):
    f = SeriesT(2, [constant] + [c(1)] * 2)
    with pytest.raises(ValueError) as err:
        kernel(f)
    assert str(err.value) == message


def test_series_mul_ring_laws():
    n = 4
    a = SeriesT.term(n, 1, omega_poly()) + SeriesT.term(n, 3, 1)
    b = SeriesT.term(n, 0, 1) + SeriesT.term(n, 2, beta_poly())
    cc = SeriesT.term(n, 1, omega_poly() * beta_poly())
    assert a * b == b * a
    assert (a + cc) * b == a * b + cc * b
    assert (a * b) * cc == a * (b * cc)


def test_a_table_values():
    tab = a_table(2)
    assert tab[0][1] == 2
    assert tab[1][1] == F(1, 2)
    assert tab[0][0] == 1
    assert tab[1][0] == 0


def test_binom_sqrt_determinants():
    dets = binom_sqrt_dets(8)
    assert dets[0] == 1
    assert dets[1] == F(1, 2)
    assert all(d != 0 for d in dets)
    # recorded when a_table had its own convolution loop
    doc = json.dumps([str(d) for d in dets]).encode()
    assert hashlib.sha256(doc).hexdigest()[:16] == "3aa8e1aa67525e9f"


def test_bareiss_det_matches_oracle_on_a_table_minors():
    table = a_table(12)
    minors = [Matrix([row[:M + 1] for row in table[:M + 1]]) for M in range(13)]
    expected = [det_fraction_oracle(sub) for sub in minors]
    assert [det(sub) for sub in minors] == expected
    assert binom_sqrt_dets(12) == expected


@pytest.mark.parametrize("seed", range(10))
def test_bareiss_det_matches_oracle_on_random_matrices(seed):
    rng = random.Random(300 + seed)
    n = rng.randint(1, 7)
    rows = [[F(rng.randint(-9, 9), rng.choice([1, 2, 3, 7, 998244353]))
             if rng.random() < 0.7 else F(0) for _ in range(n)] for _ in range(n)]
    M = Matrix(rows)
    assert det(M) == det_fraction_oracle(M)
    # a zero leading column forces a row swap; a repeated row gives 0
    swapped = Matrix([[F(0)] + row[1:] for row in rows[:-1]] + [rows[-1]])
    assert det(swapped) == det_fraction_oracle(swapped)
    if n > 1:
        singular = Matrix(rows[:-1] + [rows[0]])
        assert det(singular) == det_fraction_oracle(singular) == 0


def test_bareiss_det_edge_cases():
    assert det(Matrix.zeros(0, 0)) == 1
    assert det(Matrix([[F(-3, 7)]])) == F(-3, 7)
    assert det(Matrix([[0, 1], [1, 0]])) == -1
    with pytest.raises(ValueError):
        det(Matrix.zeros(2, 3))
