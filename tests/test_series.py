import hashlib
import json
import random
from fractions import Fraction as F

import pytest

from instanton import floer, series
from instanton.linalg import Matrix, leading_minors
from instanton.series import RationalFn, a_table, binom_sqrt_dets, expand_rational_fn
from oracles import expand_by_long_division, leading_minors_by_blocks


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
    # the closed form of the binom_sqrt_dets docstring
    assert binom_sqrt_dets(12) == [F(1, 2 ** (M * (M + 1) // 2)) for M in range(13)]


def test_binom_sqrt_determinants_reject_a_vanishing_minor(monkeypatch):
    """A table whose 2 x 2 leading minor is 0 fails at M = 1, though its full
    determinant is not 0."""
    monkeypatch.setattr(series, "a_table", lambda N: [[F(1), F(2), F(0)],
                                                      [F(2), F(4), F(0)],
                                                      [F(0), F(1), F(1)]])
    assert leading_minors(Matrix(series.a_table(2))) == [1, 0]
    with pytest.raises(AssertionError, match=r"det\(a_ks\) vanished at M=1$"):
        binom_sqrt_dets(2)


def test_bareiss_det_matches_oracle_on_a_table_minors():
    table = a_table(12)
    expected = leading_minors_by_blocks(Matrix(table))
    assert len(expected) == 13
    assert leading_minors(Matrix(table)) == expected
    assert binom_sqrt_dets(12) == expected


@pytest.mark.parametrize("seed", range(10))
def test_bareiss_det_matches_oracle_on_random_matrices(seed):
    """``leading_minors`` equals the Fraction determinant of each leading
    block, and stops right after the first zero minor, whatever follows."""
    rng = random.Random(300 + seed)
    n = rng.randint(1, 7)
    rows = [[F(rng.randint(-9, 9), rng.choice([1, 2, 3, 7, 998244353]))
             if rng.random() < 0.7 else F(0) for _ in range(n)] for _ in range(n)]
    M = Matrix(rows)
    assert leading_minors(M) == leading_minors_by_blocks(M)
    swapped = Matrix([[F(0)] + row[1:] for row in rows[:-1]] + [rows[-1]])
    assert leading_minors(swapped) == leading_minors_by_blocks(swapped)
    if n > 1:
        # a zero corner is a zero first minor, even where elimination would swap rows
        assert leading_minors(swapped) == [0]
        singular = Matrix(rows[:-1] + [rows[0]])
        assert leading_minors(singular) == leading_minors_by_blocks(singular)
        assert leading_minors(singular)[-1] == 0
    if n > 2:
        # row 1 starts as a multiple of row 0: the 2 x 2 minor vanishes, and the
        # later ones are generically not 0
        c = F(rng.randint(1, 9), rng.randint(1, 9))
        rows[0][0] = rows[0][0] or F(1)
        rows[1][:2] = [c * x for x in rows[0][:2]]
        early = Matrix(rows)
        assert leading_minors(early) == leading_minors_by_blocks(early) == [rows[0][0], 0]


def test_bareiss_det_edge_cases():
    assert leading_minors(Matrix.zeros(0, 0)) == []
    assert leading_minors(Matrix([[F(-3, 7)]])) == [F(-3, 7)]
    assert leading_minors(Matrix([[0, 1], [1, 0]])) == [0]
    assert leading_minors(Matrix([[1, 2], [3, 4]])) == [1, -2]
    assert leading_minors(Matrix([[2, 0, 0], [0, 0, 0], [0, 0, 5]])) == [2, 0]
    with pytest.raises(ValueError):
        leading_minors(Matrix.zeros(2, 3))
