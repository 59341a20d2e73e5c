from fractions import Fraction as F

import pytest

from conftest import random_poly
from instanton.poly import (ALPHA, LAURENT_U, OMEGA, LaurentU, Poly, alpha,
                            beta, delta, epsilon, epsilon_hat, gamma,
                            monomials_of_degree, omega, ring)

R1 = ring(1)
R3 = ring(3)


def test_leading_order_keeps_all_top_degree_terms():
    f = alpha(R1) + delta(R1, 1) - 1
    assert f.leading_order() == alpha(R1) + delta(R1, 1)


def test_leading_order_homogeneous_is_identity():
    assert beta(R1).leading_order() == beta(R1)


def test_leading_order_inhomogeneous_relation():
    # the degree-4 relation with its lower-order tail
    a, b, d = alpha(R1), beta(R1), delta(R1, 1)
    f2 = (a * a - b) * F(1, 2) + (a + d) - F(1, 2)
    assert f2.leading_order() == (a * a - b) * F(1, 2)
    assert f2.degree() == 4


def test_leading_order_zero_errors():
    with pytest.raises(ValueError, match="zero polynomial"):
        Poly.zero(R1).leading_order()


def test_change_coordinates_examples():
    assert alpha(R1).change_coordinates(OMEGA) == omega(ring(1, coordinate=OMEGA)) \
        - delta(ring(1, coordinate=OMEGA), 1) * F(1, 2)
    w = omega(ring(1, coordinate=OMEGA))
    assert w.change_coordinates(ALPHA) == alpha(R1) + delta(R1, 1) * F(1, 2)
    f = alpha(R3) + (delta(R3, 1) + delta(R3, 2) + delta(R3, 3)) * F(1, 2)
    assert f.change_coordinates(OMEGA) == omega(ring(3, coordinate=OMEGA))


def test_change_coordinates_roundtrip_and_degree(rand):
    for _ in range(20):
        f = random_poly(R3, rand)
        g = f.change_coordinates(OMEGA)
        assert g.change_coordinates(ALPHA) == f
        assert g.degree() == f.degree()


def test_flip_examples():
    assert alpha(R1).flip([]) == alpha(R1)
    w3 = ring(3, coordinate=OMEGA)
    assert delta(w3, 1).flip([1]) == -delta(w3, 1)
    assert alpha(R1).flip([1]) == alpha(R1) + delta(R1, 1)


def test_flip_out_of_range():
    with pytest.raises(ValueError):
        alpha(R1).flip([2])


def test_flip_group_law_and_automorphism(rand):
    f = random_poly(R3, rand)
    g = random_poly(R3, rand)
    assert f.flip([1, 2]).flip([2, 3]) == f.flip([1, 3])
    assert f.flip([1]).flip([1]) == f
    assert (f * g).flip([2]) == f.flip([2]) * g.flip([2])
    assert f.flip([1, 2]).degree() == f.degree()


def test_flip_group_has_order_eight_for_three_points():
    w3 = ring(3, coordinate=OMEGA)
    probe = delta(w3, 1) + delta(w3, 2) * 2 + delta(w3, 3) * 4
    from itertools import combinations
    images = set()
    for size in range(4):
        for I in combinations((1, 2, 3), size):
            images.add(str(probe.flip(I)))
    assert len(images) == 8


def test_pi_reduce_examples():
    w3 = ring(3, coordinate=OMEGA)
    assert (delta(w3, 2) * delta(w3, 3)).pi_reduce() == \
        -(delta(ring(1, coordinate=OMEGA), 1) ** 2)
    assert (delta(w3, 2) + delta(w3, 3)).pi_reduce().is_zero()
    assert alpha(R3).pi_reduce() == alpha(R1)


def test_pi_reduce_linear_and_multiplicative(rand):
    for _ in range(10):
        f = random_poly(R3, rand)
        g = random_poly(R3, rand)
        assert (f + g).pi_reduce() == f.pi_reduce() + g.pi_reduce()
        assert (f * g).pi_reduce() == f.pi_reduce() * g.pi_reduce()


def test_evaluate_examples():
    w1 = ring(1, coordinate=OMEGA)
    r1 = omega(w1) + delta(w1, 1) * F(1, 2) - 1
    assert r1.evaluate({"omega": 1, "beta": 0, "gamma": 0, "delta1": 0}) == 0
    rel = delta(R1, 1) ** 2 + beta(R1) - 2
    assert rel.evaluate({"alpha": 0, "beta": 2, "gamma": 0, "delta1": 0}) == 0
    assert alpha(R1).evaluate({"alpha": -3, "beta": 0, "gamma": 0, "delta1": 0}) == -3


def test_evaluate_alpha_point_translates_coordinates():
    w1 = ring(1, coordinate=OMEGA)
    r1 = omega(w1) + delta(w1, 1) * F(1, 2) - 1
    # (alpha, beta, gamma, delta) = (1, 2, 0, 0) is a root of r_1
    assert r1.evaluate_alpha_point(1, 2, 0, [0]) == 0
    assert r1.evaluate_alpha_point(-1, -2, 0, [2]) == 0


def test_laurent_coefficients_and_evaluation():
    u = LaurentU.u_power(-1)
    assert u.evaluate(F(2)) == F(1, 2)
    with pytest.raises(ValueError):
        u.evaluate(0)
    prod = LaurentU({2: 1, -2: 1}) * LaurentU({0: F(1, 2)})
    assert prod == LaurentU({2: F(1, 2), -2: F(1, 2)})


def test_epsilon_squares_to_one():
    re = ring(1, has_epsilon=True)
    e = epsilon(re)
    assert e * e == Poly.constant(re, 1)
    f = (alpha(re) + e) * (alpha(re) - e)
    assert f == alpha(re) * alpha(re) - 1


@pytest.mark.parametrize("n,sign", [(1, 1), (3, -1), (5, 1), (7, -1)])
def test_epsilon_hat_alias(n, sign):
    re = ring(n, has_epsilon=True)
    assert epsilon_hat(re) == epsilon(re) * sign


def test_degree_multiplicative_and_components(rand):
    for _ in range(10):
        f = random_poly(R3, rand)
        g = random_poly(R3, rand)
        if f.is_zero() or g.is_zero():
            continue
        assert (f * g).degree() == f.degree() + g.degree()
        total = Poly.zero(R3)
        for _d, comp in f.homogeneous_components().items():
            total = total + comp
        assert total == f


def test_monomial_degree_convention():
    re = ring(3, has_epsilon=True)
    exps = (1, 1, 1, 1, 1, 1, 1)  # alpha beta gamma delta1 delta2 delta3 epsilon
    assert re.monomial_degree(exps) == 2 + 4 + 6 + 2 + 2 + 2 + 2


def test_monomials_of_degree_counts():
    # degree 4 in one point: alpha^2, alpha*delta, delta^2, beta
    assert len(monomials_of_degree(R1, 4)) == 4
    assert monomials_of_degree(R1, 3) == []


def test_json_round_trip(rand):
    for rng in (R3, ring(1, coeff_kind="laurent_u", coordinate=OMEGA)):
        f = random_poly(rng, rand)
        if rng.coeff_kind == "laurent_u":
            f = f * Poly.constant(rng, LaurentU({-1: 1, 2: F(1, 3)}))
        doc = f.to_json()
        assert Poly.from_json(doc) == f


def test_power_and_scalar_ops():
    a = alpha(R1)
    assert a ** 0 == Poly.constant(R1, 1)
    assert a ** 3 == a * a * a
    assert (a * 2) / 2 == a
    with pytest.raises(ValueError):
        a ** -1


@pytest.mark.parametrize("rng", [ring(3), ring(1, coordinate=OMEGA), ring(3, has_epsilon=True),
                                 ring(3, coeff_kind=LAURENT_U, has_epsilon=True)],
                         ids=["rational", "omega", "epsilon", "laurent_epsilon"])
def test_times_monomial_is_the_monomial_product(rand, rng):
    zero = Poly.zero(rng)
    for _ in range(25):
        p = random_poly(rng, rand, terms=rand.randint(1, 8))
        if rng.coeff_kind == LAURENT_U:
            p = p * LaurentU({-2: 1, 1: F(rand.randint(1, 9), 4)})
        mono = tuple(rand.randint(0, 2) for _ in range(rng.nvars))
        if rng.has_epsilon:
            mono = mono[:-1] + (rand.randint(0, 1),)
        shifted = p.times_monomial(mono)
        assert shifted == p * Poly.monomial(rng, mono)
        assert len(shifted.terms) == len(p.terms)
        assert zero.times_monomial(mono) == zero
