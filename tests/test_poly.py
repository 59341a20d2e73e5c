from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_laurent_poly, random_poly
from oracles import first_substituted_by_fractions, flip_round_trip, poly_mul_by_fractions
from instanton.poly import (ALPHA, LAURENT_U, OMEGA, RATIONAL, LaurentU, Poly,
                            RingDescriptor, _delta_sum, monomials_of_degree, ring)
from instanton.relations import specialize_u

R1 = ring(1)
R3 = ring(3)


def test_ring_descriptor_is_a_checked_frozen_value():
    """A ring's repr names its fields; equal fields give equal rings with equal
    hashes (rings key the memo dicts); it cannot be changed in place; and bad
    arguments raise ValueError."""
    assert repr(R3) == "RingDescriptor(n=3, coeff_kind='rational', coordinate='alpha')"
    assert (repr(RingDescriptor(1, LAURENT_U, OMEGA))
            == "RingDescriptor(n=1, coeff_kind='laurent_u', coordinate='omega')")
    omega3 = R3.with_coordinate(OMEGA)
    assert omega3 == ring(3, coordinate=OMEGA) != R3
    assert hash(omega3) == hash(ring(3, RATIONAL, OMEGA))
    assert omega3.with_coordinate(ALPHA) == R3 != R1 == R3.with_n(1)
    with pytest.raises(AttributeError):
        R3.n = 5
    for args, message in [((2,), "n must be a positive odd integer, got 2"),
                          ((-1,), "n must be a positive odd integer, got -1"),
                          ((1, "integer"), "unknown coeff_kind 'integer'"),
                          ((1, RATIONAL, "beta"), "unknown coordinate 'beta'")]:
        with pytest.raises(ValueError, match=f"^{message}$"):
            RingDescriptor(*args)


def test_leading_order_keeps_all_top_degree_terms():
    f = Poly.variable(R1, "alpha") + Poly.variable(R1, "delta1") - 1
    assert f.leading_order() == Poly.variable(R1, "alpha") + Poly.variable(R1, "delta1")


def test_leading_order_homogeneous_is_identity():
    assert Poly.variable(R1, "beta").leading_order() == Poly.variable(R1, "beta")


def test_leading_order_inhomogeneous_relation():
    # the degree-4 relation with its lower-order tail
    a, b, d = Poly.variable(R1, "alpha"), Poly.variable(R1, "beta"), Poly.variable(R1, "delta1")
    f2 = (a * a - b) * F(1, 2) + (a + d) - F(1, 2)
    assert f2.leading_order() == (a * a - b) * F(1, 2)
    assert f2.degree() == 4


def test_leading_order_zero_errors():
    with pytest.raises(ValueError, match="zero polynomial"):
        Poly.zero(R1).leading_order()


def test_change_coordinates_examples():
    w1 = ring(1, coordinate=OMEGA)
    a, d = Poly.variable(R1, "alpha"), Poly.variable(R1, "delta1")
    w, wd = Poly.variable(w1, "omega"), Poly.variable(w1, "delta1")
    assert a.change_coordinates(OMEGA) == w - wd * F(1, 2)
    assert w.change_coordinates(ALPHA) == a + d * F(1, 2)
    f = Poly.variable(R3, "alpha") + _delta_sum(R3, (1, 2, 3)) * F(1, 2)
    assert f.change_coordinates(OMEGA) == Poly.variable(ring(3, coordinate=OMEGA), "omega")


def test_change_coordinates_roundtrip_and_degree(rand):
    for _ in range(20):
        f = random_poly(R3, rand)
        g = f.change_coordinates(OMEGA)
        assert g.change_coordinates(ALPHA) == f
        assert g.degree() == f.degree()


def test_flip_examples():
    a = Poly.variable(R1, "alpha")
    assert a.flip([]) == a
    d = Poly.variable(ring(3, coordinate=OMEGA), "delta1")
    assert d.flip([1]) == -d
    assert a.flip([1]) == a + Poly.variable(R1, "delta1")


def test_flip_out_of_range():
    with pytest.raises(ValueError):
        Poly.variable(R1, "alpha").flip([2])


def test_flip_group_law_and_automorphism(rand):
    f = random_poly(R3, rand)
    g = random_poly(R3, rand)
    assert f.flip([1, 2]).flip([2, 3]) == f.flip([1, 3])
    assert f.flip([1]).flip([1]) == f
    assert (f * g).flip([2]) == f.flip([2]) * g.flip([2])
    assert f.flip([1, 2]).degree() == f.degree()


def test_flip_group_has_order_eight_for_three_points():
    w3 = ring(3, coordinate=OMEGA)
    d1, d2, d3 = (Poly.variable(w3, f"delta{i}") for i in (1, 2, 3))
    probe = d1 + d2 * 2 + d3 * 4
    from itertools import combinations
    images = set()
    for size in range(4):
        for I in combinations((1, 2, 3), size):
            images.add(str(probe.flip(I)))
    assert len(images) == 8


def test_pi_reduce_examples():
    w3 = ring(3, coordinate=OMEGA)
    assert (Poly.variable(w3, "delta2") * Poly.variable(w3, "delta3")).pi_reduce() == \
        -(Poly.variable(ring(1, coordinate=OMEGA), "delta1") ** 2)
    assert (Poly.variable(w3, "delta2") + Poly.variable(w3, "delta3")).pi_reduce().is_zero()
    assert Poly.variable(R3, "alpha").pi_reduce() == Poly.variable(R1, "alpha")


def test_pi_reduce_linear_and_multiplicative(rand):
    for _ in range(10):
        f = random_poly(R3, rand)
        g = random_poly(R3, rand)
        assert (f + g).pi_reduce() == f.pi_reduce() + g.pi_reduce()
        assert (f * g).pi_reduce() == f.pi_reduce() * g.pi_reduce()


def test_evaluate_examples():
    w1 = ring(1, coordinate=OMEGA)
    r1 = Poly.variable(w1, "omega") + Poly.variable(w1, "delta1") * F(1, 2) - 1
    assert r1.evaluate({"omega": 1, "beta": 0, "gamma": 0, "delta1": 0}) == 0
    rel = Poly.variable(R1, "delta1") ** 2 + Poly.variable(R1, "beta") - 2
    assert rel.evaluate({"alpha": 0, "beta": 2, "gamma": 0, "delta1": 0}) == 0
    a = Poly.variable(R1, "alpha")
    assert a.evaluate({"alpha": -3, "beta": 0, "gamma": 0, "delta1": 0}) == -3


def test_evaluate_alpha_point_translates_coordinates():
    w1 = ring(1, coordinate=OMEGA)
    r1 = Poly.variable(w1, "omega") + Poly.variable(w1, "delta1") * F(1, 2) - 1
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


def test_degree_multiplicative_and_components(rand):
    for _ in range(10):
        f = random_poly(R3, rand)
        g = random_poly(R3, rand)
        if f.is_zero() or g.is_zero():
            continue
        assert (f * g).degree() == f.degree() + g.degree()
        total = Poly.zero(R3)
        for d in {R3.monomial_degree(e) for e in f.terms}:
            total = total + f.homogeneous_component(d)
        assert total == f


def test_monomial_degree_convention():
    exps = (1, 1, 1, 1, 1, 1)  # alpha beta gamma delta1 delta2 delta3
    assert R3.monomial_degree(exps) == 2 + 4 + 6 + 2 + 2 + 2


def test_monomials_of_degree_counts():
    # degree 4 in one point: alpha^2, alpha*delta, delta^2, beta
    assert len(monomials_of_degree(R1, 4)) == 4
    assert monomials_of_degree(R1, 3) == []


def test_power_and_scalar_ops():
    a = Poly.variable(R1, "alpha")
    assert a ** 0 == Poly.constant(R1, 1)
    assert a ** 3 == a * a * a
    assert (a * 2) / 2 == a
    with pytest.raises(ValueError):
        a ** -1


@pytest.mark.parametrize("rng", [ring(3), ring(1, coordinate=OMEGA), ring(3, coeff_kind=LAURENT_U)],
                         ids=["rational", "omega", "laurent"])
def test_times_monomial_is_the_monomial_product(rand, rng):
    zero = Poly.zero(rng)
    for _ in range(25):
        p = random_poly(rng, rand, terms=rand.randint(1, 8))
        if rng.coeff_kind == LAURENT_U:
            p = p * LaurentU({-2: 1, 1: F(rand.randint(1, 9), 4)})
        mono = tuple(rand.randint(0, 2) for _ in range(rng.nvars))
        shifted = p.times_monomial(mono)
        assert shifted == p * Poly.monomial(rng, mono)
        assert len(shifted.terms) == len(p.terms)
        assert zero.times_monomial(mono) == zero


# -- arithmetic checked by evaluation, not by Poly's own arithmetic ---------------

EVAL_RINGS = [ring(3), ring(3, coordinate=OMEGA), ring(3, coeff_kind=LAURENT_U)]
EVAL_IDS = ["rational", "omega", "laurent"]


def _poly(rng, rand, **kw):
    if rng.coeff_kind == LAURENT_U:
        return random_laurent_poly(rng, rand, **kw)
    return random_poly(rng, rand, **kw)


def _point(rng, rand):
    """A random rational point of the ring and a random nonzero u."""
    point = {name: F(rand.randint(-9, 9), rand.randint(1, 5)) for name in rng.var_names}
    return point, F(rand.choice((-1, 1)) * rand.randint(1, 7), rand.randint(1, 5))


def _value(f, point, u):
    """f at a rational point, its Laurent coefficients at u."""
    return specialize_u(f, u).evaluate(point)


def _no_zero_stored(*polys):
    for p in polys:
        assert all(p.terms.values())
        if p.ring.coeff_kind == LAURENT_U:
            assert all(c.terms and all(c.terms.values()) for c in p.terms.values())


@pytest.mark.parametrize("rng", EVAL_RINGS, ids=EVAL_IDS)
def test_arithmetic_is_evaluation(rand, rng):
    """Sums, differences, products and monomial shifts of random polynomials,
    with many colliding exponents, against the values at random points."""
    for _ in range(30):
        f = _poly(rng, rand, terms=rand.randint(0, 7), max_exp=1)
        g = _poly(rng, rand, terms=rand.randint(0, 7), max_exp=1)
        point, u = _point(rng, rand)
        fv, gv = _value(f, point, u), _value(g, point, u)
        assert _value(f * g, point, u) == fv * gv
        assert _value(f + g, point, u) == fv + gv
        assert _value(f - g, point, u) == fv - gv
        assert _value(f * F(-3, 2), point, u) == fv * F(-3, 2)
        mono = tuple(rand.randint(0, 2) for _ in range(rng.nvars))
        mv = 1
        for name, e in zip(rng.var_names, mono):
            mv *= F(point[name]) ** e
        assert _value(f.times_monomial(mono), point, u) == fv * mv
        _no_zero_stored(f, g, f * g, f + g, f - g, f - f, f + (-f), f * g - g * f,
                        f.times_monomial(mono))
        assert (f - f).terms == {} and (f * g - g * f).terms == {}


@pytest.mark.parametrize("rng", EVAL_RINGS, ids=EVAL_IDS)
def test_structure_maps_are_evaluation(rand, rng):
    """change_coordinates, flip and pi_reduce against their definitions on
    points: omega = alpha + (sum delta)/2; tau_I fixes omega and negates
    delta_i (i in I); pi sends the last two deltas to -delta_{n-2} and
    delta_{n-2}."""
    for _ in range(15):
        f = _poly(rng, rand, terms=rand.randint(1, 7), max_exp=2)
        point, u = _point(rng, rand)
        a, b, c = point[rng.var_names[0]], point["beta"], point["gamma"]
        ds = [point[f"delta{i}"] for i in (1, 2, 3)]
        if rng.coordinate == OMEGA:
            a -= sum(ds) / 2  # the alpha value of this point
        fv = specialize_u(f, u).evaluate_alpha_point(a, b, c, ds)
        other = OMEGA if rng.coordinate == ALPHA else ALPHA
        moved = f.change_coordinates(other)
        assert specialize_u(moved, u).evaluate_alpha_point(a, b, c, ds) == fv
        for I in ((1,), (1, 3), (1, 2, 3)):
            flipped = [-d if i + 1 in I else d for i, d in enumerate(ds)]
            a_flip = a + sum(ds[i - 1] for i in I)
            assert specialize_u(f.flip(I), u).evaluate_alpha_point(a, b, c, ds) == \
                specialize_u(f, u).evaluate_alpha_point(a_flip, b, c, flipped)
        small_point = {k: v for k, v in point.items() if k not in ("delta2", "delta3")}
        big_point = dict(small_point, delta2=-point["delta1"], delta3=point["delta1"])
        assert _value(f.pi_reduce(), small_point, u) == _value(f, big_point, u)
        _no_zero_stored(moved, f.flip((1, 3)), f.pi_reduce())


_HYP_RINGS = [ring(3), ring(1, coeff_kind=LAURENT_U, coordinate=OMEGA), ring(1)]
_small = st.fractions(min_value=-4, max_value=4, max_denominator=3)


@st.composite
def _poly_pair_and_point(draw):
    rng = draw(st.sampled_from(_HYP_RINGS))

    def coeff():
        if rng.coeff_kind == LAURENT_U:
            return LaurentU(draw(st.dictionaries(st.integers(-2, 2), _small, max_size=3)))
        return draw(_small)

    def poly():
        keys = draw(st.lists(st.tuples(*[st.integers(0, 2)] * rng.nvars), max_size=6))
        return Poly(rng, {k: coeff() for k in keys})

    point = {name: draw(_small) for name in rng.var_names}
    u = draw(_small.filter(bool))
    return poly(), poly(), point, u


@settings(max_examples=100)
@given(_poly_pair_and_point())
def test_arithmetic_is_evaluation_property(case):
    f, g, point, u = case
    fv, gv = _value(f, point, u), _value(g, point, u)
    assert _value(f * g, point, u) == fv * gv
    assert _value(f + g, point, u) == fv + gv
    _no_zero_stored(f, g, f * g, f + g, f - g)
    assert (f - f).is_zero() and (f * g - g * f).is_zero()


_FLIP_RINGS = [ring(3), ring(3, coordinate=OMEGA), ring(3, coeff_kind=LAURENT_U),
               ring(3, coeff_kind=LAURENT_U, coordinate=OMEGA)]


@st.composite
def _flip_case(draw):
    rng = draw(st.sampled_from(_FLIP_RINGS))

    def coeff():
        if rng.coeff_kind == LAURENT_U:
            return LaurentU(draw(st.dictionaries(st.integers(-2, 2), _small, max_size=3)))
        return draw(_small)

    def poly():
        keys = draw(st.lists(st.tuples(*[st.integers(0, 2)] * rng.nvars), max_size=5))
        return Poly(rng, {k: coeff() for k in keys})

    flips = st.sets(st.integers(1, rng.n))
    return poly(), poly(), draw(flips), draw(flips)


@settings(max_examples=100)
@given(_flip_case())
def test_flip_group_laws_property(case):
    """tau_I tau_J = tau_{I xor J}, tau_I is multiplicative, commutes with the
    change of coordinates and equals the round trip through omega-coordinates."""
    f, g, I, J = case
    assert f.flip(I).flip(J) == f.flip(I ^ J)
    assert (f * g).flip(I) == f.flip(I) * g.flip(I)
    other = OMEGA if f.ring.coordinate == ALPHA else ALPHA
    assert f.change_coordinates(other).flip(I) == f.flip(I).change_coordinates(other)
    assert f.flip(I) == flip_round_trip(f, I)
    _no_zero_stored(f.flip(I))


# -- the integer-numerator kernels against their Fraction oracles ------------------

_KERNEL_RINGS = [ring(n, coordinate=c) for n in (1, 3, 5) for c in (ALPHA, OMEGA)] \
    + [ring(1, coeff_kind=LAURENT_U), ring(3, coeff_kind=LAURENT_U, coordinate=OMEGA),
       ring(3, coeff_kind=LAURENT_U)]
_mixed = st.fractions(min_value=-6, max_value=6, max_denominator=12)


def _same_terms(got, want):
    """Equal terms in the same dict order, with coefficients of the same type."""
    assert got.ring == want.ring
    assert list(got.terms.items()) == list(want.terms.items())
    assert [type(c) for c in got.terms.values()] == [type(c) for c in want.terms.values()]


@st.composite
def _kernel_case(draw):
    rng = draw(st.sampled_from(_KERNEL_RINGS))

    def coeff():
        if rng.coeff_kind == LAURENT_U:
            return LaurentU(draw(st.dictionaries(st.integers(-2, 2), _mixed, max_size=3)))
        return draw(_mixed)

    def poly():
        exps = st.tuples(st.integers(0, 3), *[st.integers(0, 1)] * (rng.nvars - 1))
        return Poly(rng, {k: coeff() for k in draw(st.lists(exps, max_size=6))})

    return poly(), poly(), draw(st.sets(st.integers(1, rng.n)))


@settings(max_examples=200)
@given(_kernel_case())
def test_kernels_match_fraction_oracles_property(case):
    """Products, changes of coordinates and flips against the Fraction bodies
    in tests/oracles.py: the same terms, coefficient types and dict order, with
    mixed denominators and zero and one-term operands."""
    f, g, I = case
    rng = f.ring
    zero = Poly.zero(rng)
    pairs = [(f, g), (g, f), (f, f), (f, zero), (zero, g)]
    if g.terms:  # a one-term operand on either side: a shift and a scale
        one = Poly(rng, dict([next(iter(g.terms.items()))]))
        pairs += [(f, one), (one, f), (one, one)]
    for left, right in pairs:
        _same_terms(left * right, poly_mul_by_fractions(left, right))
    _same_terms(f + zero, f)
    _same_terms(zero + g, g)
    other = OMEGA if rng.coordinate == ALPHA else ALPHA
    moved = rng.with_coordinate(other)
    shift = F(1, 2) if other == ALPHA else F(-1, 2)
    image = Poly.variable(moved, other) + _delta_sum(moved, range(1, rng.n + 1)) * shift
    _same_terms(f.change_coordinates(other),
                first_substituted_by_fractions(moved, image, f.terms.items()))
    if rng.coordinate == ALPHA:
        signed = [(e, -c if sum(e[2 + i] for i in I) % 2 else c) for e, c in f.terms.items()]
        image = Poly.variable(rng, "alpha") + _delta_sum(rng, I)
        _same_terms(f.flip(I), first_substituted_by_fractions(rng, image, signed))
