import hashlib
import json
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_poly
from instanton.poly import LAURENT_U, OMEGA, LaurentU, Poly, ring
from instanton.quotient import (QuotientSpec, canonical_monomials, canonical_rep,
                                mod_beta_spec, model_spec, rbar_spec)
from oracles import canonical_rep_two_step, dense_reduce_oracle, rho_proj_all_by_reduction

W1 = ring(1, coordinate=OMEGA)
W3 = ring(3, coordinate=OMEGA)
WL3 = ring(3, coeff_kind=LAURENT_U, coordinate=OMEGA)


def pi_on_quotient(f: Poly, spec_from: QuotientSpec, spec_to: QuotientSpec) -> Poly:
    """Reduce then apply the point-reduction map; specs must agree."""
    if spec_from != spec_to:
        raise ValueError("incompatible quotient specs")
    return canonical_rep(canonical_rep(f, spec_from).pi_reduce(), spec_to)


def test_canonical_rep_examples():
    w, b, c, d = (Poly.variable(W1, v) for v in W1.var_names)
    assert canonical_rep(d ** 2, QuotientSpec()) == -b  # delta^2 = -beta
    assert canonical_rep(d ** 5 * w, QuotientSpec()) == b ** 2 * d * w
    g = 2
    spec_g = model_spec(g)
    assert canonical_rep(c ** g * d ** 3, spec_g) == -(c ** g) * b * d
    assert canonical_rep(c ** (g + 1), spec_g).is_zero()
    assert canonical_rep(d ** 2 + b, mod_beta_spec()).is_zero()
    w3, b3, _c3, d1, d2, _d3 = (Poly.variable(W3, v) for v in W3.var_names)
    assert canonical_rep(w3 * d1 ** 2 * d2, rbar_spec()) == -b3 * w3 * d2


def test_canonical_rep_properties(rand):
    for spec in (rbar_spec(), model_spec(1), QuotientSpec()):
        for _ in range(8):
            f = random_poly(W3 if spec.gamma_truncation == 1 else W1, rand, max_exp=3)
            rep = canonical_rep(f, spec)
            assert canonical_rep(rep, spec) == rep  # idempotent
            assert rep.degree() <= f.degree()       # never raises degree
    f = random_poly(W3, rand, max_exp=3)
    g = random_poly(W3, rand, max_exp=3)
    spec = rbar_spec()
    assert canonical_rep(f + g, spec) == canonical_rep(f, spec) + canonical_rep(g, spec)
    assert canonical_rep(f * g, spec) == \
        canonical_rep(canonical_rep(f, spec) * canonical_rep(g, spec), spec)


def test_canonical_rep_matches_dense_oracle(rand):
    """Fast reduction against the one-rewrite-at-a-time second path."""
    for spec in (rbar_spec(), model_spec(2), mod_beta_spec()):
        for _ in range(200):
            f = random_poly(W3, rand, terms=4, max_exp=3)
            assert canonical_rep(f, spec) == dense_reduce_oracle(f, spec)


_SPECS = [rbar_spec(), model_spec(0), model_spec(1), model_spec(3), QuotientSpec(),
          mod_beta_spec()]
_REDUCTION_RINGS = [ring(3), W3, ring(3, coeff_kind=LAURENT_U), WL3]
_small = st.fractions(min_value=-4, max_value=4, max_denominator=3)


@st.composite
def _reduction_case(draw):
    spec = draw(st.sampled_from(_SPECS))
    rng = draw(st.sampled_from(_REDUCTION_RINGS))

    def coeff():
        if rng.coeff_kind == LAURENT_U:
            return LaurentU(draw(st.dictionaries(st.integers(-2, 2), _small, max_size=3)))
        return draw(_small)

    keys = draw(st.lists(st.tuples(*[st.integers(0, 3)] * rng.nvars), max_size=5))
    return Poly(rng, {k: coeff() for k in keys}), spec


@settings(max_examples=100)
@given(_reduction_case())
def test_canonical_rep_matches_dense_oracle_property(case):
    """canonical_rep equals the one-rewrite-at-a-time oracle in either
    coordinate, with rational and Laurent coefficients, for every spec in use."""
    f, spec = case
    assert canonical_rep(f, spec) == dense_reduce_oracle(f, spec)


_ALPHA_RINGS = [ring(1), ring(3), ring(5), ring(3, coeff_kind=LAURENT_U)]


@st.composite
def _alpha_case(draw):
    spec = draw(st.sampled_from(_SPECS))
    rng = draw(st.sampled_from(_ALPHA_RINGS))

    def coeff():
        if rng.coeff_kind == LAURENT_U:
            return LaurentU(draw(st.dictionaries(st.integers(-2, 2), _small, max_size=3)))
        return draw(_small)

    # alpha up to 7, so many canonical powers of S are built and combined
    exps = st.tuples(st.integers(0, 7), *[st.integers(0, 3)] * (rng.nvars - 1))
    return Poly(rng, {k: coeff() for k in draw(st.lists(exps, max_size=5))}), spec


@settings(max_examples=150)
@given(_alpha_case())
def test_canonical_rep_matches_two_step_oracle_on_alpha_input(case):
    """Substituting and folding in one pass equals the full change to
    omega-coordinates followed by the fold, term for term."""
    f, spec = case
    rep, slow = canonical_rep(f, spec), canonical_rep_two_step(f, spec)
    assert rep.ring == slow.ring
    assert rep.terms == slow.terms


@pytest.mark.parametrize("n", [1, 3, 5, 7])
def test_canonical_rep_of_xi_matches_two_step_oracle(n):
    """A5's inputs: xi_{k,n} in R-bar_n for k <= 8."""
    from instanton.relations import xi
    for k in range(9):
        f = xi(k, n)
        assert canonical_rep(f, rbar_spec()).terms == canonical_rep_two_step(f, rbar_spec()).terms


@pytest.mark.parametrize("g,n", [(0, 1), (1, 1), (2, 1), (0, 3), (1, 3), (0, 5)])
def test_canonical_rep_of_igen_orbits_matches_two_step_oracle(g, n):
    """A3's generators, both parities, in the ring A3 ranks them in."""
    from instanton.relations import igen
    spec = model_spec(g)
    for parity in ("even", "odd"):
        for _name, f in igen(g, n, parity).gens:
            assert canonical_rep(f, spec).terms == canonical_rep_two_step(f, spec).terms


def test_canonical_rep_never_changes_coordinates(monkeypatch):
    """The one-pass reduction must not fall back on the full expansion: with
    change_coordinates disabled, xi-bar_{8,7} and the rho_{8,7,s} read off it
    by the reduction oracle still come out equal to the two-step oracle's."""
    from instanton.relations import xi
    f = xi(8, 7)
    want_xbar = canonical_rep_two_step(f, rbar_spec())
    want_rho = rho_proj_all_by_reduction(8, 7, canonical_rep_two_step)

    def refuse(*_args, **_kwargs):
        raise AssertionError("change_coordinates called")
    monkeypatch.setattr(Poly, "change_coordinates", refuse)
    assert canonical_rep(f, rbar_spec()).terms == want_xbar.terms
    assert rho_proj_all_by_reduction(8, 7, canonical_rep) == want_rho


@pytest.mark.parametrize("rng,spec", [
    (ring(3), rbar_spec()), (W3, model_spec(2)), (W3, mod_beta_spec()),
], ids=["rbar_alpha", "model2", "mod_beta"])
def test_canonical_rep_is_evaluation_on_the_relations(rand, rng, spec):
    """canonical_rep(f) equals f at every point where the relations hold:
    delta_i = +-d, beta = -d^2, gamma = 0 (and d = 0 when beta = 0)."""
    for _ in range(40):
        f = random_poly(rng, rand, terms=6, max_exp=3)
        d = F(0) if spec.beta_zero else F(rand.randint(-9, 9), rand.randint(1, 5))
        deltas = [d * rand.choice((1, -1)) for _ in range(rng.n)]
        alpha = F(rand.randint(-9, 9), rand.randint(1, 5))
        rep = canonical_rep(f, spec)
        assert all(rep.terms.values())
        assert rep.evaluate_alpha_point(alpha, -d * d, 0, deltas) == \
            f.evaluate_alpha_point(alpha, -d * d, 0, deltas)


def test_canonical_rep_matches_its_pinned_digest():
    """canonical_rep on seeded random polynomials over the spec x ring grid of
    test_canonical_rep_is_evaluation_on_the_relations: the JSON of every
    representative is byte-for-byte the recorded one."""
    grid = [(ring(3), rbar_spec()), (W3, QuotientSpec(gamma_truncation=3)), (W3, mod_beta_spec())]
    rand = random.Random(20240817)
    docs = [canonical_rep(random_poly(rng, rand, terms=6, max_exp=3), spec).to_json()
            for rng, spec in grid for _ in range(40)]
    assert hashlib.sha256(json.dumps(docs).encode()).hexdigest() == \
        "c4ec955d984f494e63f9355b4628695afe009df3da767d6c0305450cf55ed16e"


def test_quotient_spec_is_a_checked_frozen_value():
    """A spec's repr names its fields; equal fields give equal specs with equal
    hashes; it cannot be changed in place; and a gamma truncation below 1
    raises ValueError."""
    assert repr(QuotientSpec()) == "QuotientSpec(gamma_truncation=None, beta_zero=False)"
    assert repr(mod_beta_spec()) == "QuotientSpec(gamma_truncation=1, beta_zero=True)"
    assert model_spec(0) == rbar_spec() == QuotientSpec(1) != mod_beta_spec()
    assert hash(model_spec(2)) == hash(QuotientSpec(gamma_truncation=3))
    with pytest.raises(AttributeError):
        QuotientSpec().beta_zero = True
    for bad in (0, -2):
        with pytest.raises(ValueError, match="^gamma truncation must be >= 1$"):
            QuotientSpec(gamma_truncation=bad)


def test_pi_on_quotient_examples():
    spec = QuotientSpec()
    f = Poly.variable(W3, "delta2") * Poly.variable(W3, "delta3")
    assert pi_on_quotient(f, spec, spec) == Poly.variable(W1, "beta")  # -delta_1^2 = beta
    assert pi_on_quotient(Poly.variable(W3, "omega"), spec, spec) == Poly.variable(W1, "omega")
    with pytest.raises(ValueError):
        pi_on_quotient(f, spec, rbar_spec())


def test_pi_injective_on_isotypic_piece():
    """Rank check: the point-reduction is injective on each isotypic slice."""
    g = 2
    spec = model_spec(g)
    basis_vectors = []
    image_monos = {}
    for d in range(0, 13, 2):
        for mono in canonical_monomials(W3, spec, d):
            sup = frozenset(i + 1 for i, e in enumerate(mono[3:6]) if e)
            if sup not in ({1}, {2, 3}):
                continue
            p = Poly.monomial(W3, mono)
            img = pi_on_quotient(p, spec, spec)
            basis_vectors.append((mono, img))
    # distinct images must be linearly independent: collect over monomials
    from instanton.linalg import Matrix, rank
    cols = sorted({e for _m, img in basis_vectors for e in img.terms})
    index = {e: i for i, e in enumerate(cols)}
    rows = []
    for _m, img in basis_vectors:
        vec = [F(0)] * len(cols)
        for e, c in img.terms.items():
            vec[index[e]] = c
        rows.append(vec)
    assert rank(Matrix(rows)) == len(rows)  # full rank = injective


def test_canonical_monomials_counts():
    spec = rbar_spec()
    # degree 2: omega, delta1, delta2, delta3
    assert len(canonical_monomials(W3, spec, 2)) == 4
    # beta_zero removes the beta monomial at degree 4
    assert len(canonical_monomials(W3, mod_beta_spec(), 4)) == \
        len(canonical_monomials(W3, rbar_spec(), 4)) - 1

