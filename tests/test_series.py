import hashlib
import json
import random
from fractions import Fraction as F

import pytest

from instanton import floer
from instanton.linalg import Matrix, det
from instanton.series import RationalFn, a_table, binom_sqrt_dets, expand_rational_fn
from oracles import det_fraction_oracle, expand_by_long_division


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
