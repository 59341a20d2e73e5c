import hashlib
import json
from fractions import Fraction as F

import pytest

from oracles import (delta_sym, orbit_by_round_trip, r_poly_from_written_bases,
                     rho_proj_all_by_reduction, rho_series_with_s)

from instanton import acceptance, relations
from instanton.floer import (_marked_ideals, _one_point_ideals, gamma_power_witness,
                             solve_subleading)
from instanton.linalg import Matrix, rank
from instanton.poly import OMEGA, LaurentU, Poly, ring
from instanton.quotient import QuotientSpec, canonical_rep, rbar_spec
from instanton.relations import (EtaChoice, GeneratorSet,
                                 flip_orbit, flip_subsets, gamma_cofactors, igen, jgen_n1,
                                 kprime_gen, phi_negate, r_poly,
                                 rho_proj, rho_series, specialize_u,
                                 w_skeleton, xi)
from instanton.series import COEFF_RING

R1 = ring(1)
W1 = ring(1, coordinate=OMEGA)


# -- xi ---------------------------------------------------------------------------


def test_xi_base_cases_and_paper_values():
    assert xi(1, 3) == Poly.variable(ring(3), "alpha")
    a, b, c = (Poly.variable(R1, v) for v in ("alpha", "beta", "gamma"))
    assert xi(2, 1) == (a ** 2 - b) * F(1, 2)
    assert xi(3, 1) == a ** 3 * F(1, 6) - a * b * F(5, 6) - c * F(1, 6)


def test_xi_recursion_step():
    # (k+1) xi_{k+1} = alpha xi_k + (m-k) beta xi_{k-1} - gamma/2 xi_{k-2}
    n, m = 5, 2
    rng = ring(5)
    a, b, c = (Poly.variable(rng, v) for v in ("alpha", "beta", "gamma"))
    for k in range(2, 7):
        lhs = xi(k + 1, n, rng) * (k + 1)
        rhs = a * xi(k, n, rng) + b * xi(k - 1, n, rng) * (m - k) \
            - c * xi(k - 2, n, rng) * F(1, 2)
        assert lhs == rhs


@pytest.mark.parametrize("n", [-3, -1, 1, 3, 5, 7])
def test_xi_degree(n):
    for k in range(13):
        p = xi(k, n)
        assert p.is_homogeneous()
        assert p.degree() == 2 * k


def test_xi_negative_k_errors():
    with pytest.raises(ValueError):
        xi(-1, 1)


# -- delta_sym ---------------------------------------------------------------------


def test_delta_sym_examples():
    w3 = ring(3, coordinate=OMEGA)
    assert delta_sym(3, 0) == Poly.constant(w3, 1)
    d1, d2, d3 = (Poly.variable(w3, f"delta{i}") for i in (1, 2, 3))
    assert delta_sym(3, 1) == d1 + d2 + d3
    assert delta_sym(3, 3) == d1 * d2 * d3
    with pytest.raises(ValueError):
        delta_sym(3, 4)


# -- rho ---------------------------------------------------------------------------


def om():
    return Poly.variable(COEFF_RING, "omega")


def test_rho_proj_examples():
    assert rho_proj(1, 3, 0) == om() * 4
    assert rho_proj(1, 3, 1) == Poly.constant(COEFF_RING, -2)
    for n in (1, 3, 5):
        m = (n - 1) // 2
        assert rho_proj(0, n, 0) == Poly.constant(COEFF_RING, 2 ** (m + 1))
    assert rho_proj(2, 3, 3).is_zero()  # s > k


def test_rho_series_examples():
    assert rho_series(0, 1) == Poly.constant(COEFF_RING, 2)
    # sign branch pinned by the acceptance suite: series carries omega -> -omega
    assert rho_series(1, 1) == om() * -2
    p = rho_series(2, 1)
    beta_zero = Poly.from_terms(p.ring, ((e, c) for e, c in p.terms.items() if e[1] == 0))
    assert beta_zero == om() * om()


def test_rho_functional_identity_signed():
    """rho_proj(k,n,s) = (-1)^s rho_proj(k-s, n-2s, 0); unsigned fails for odd s."""
    for (k, n, s), (k2, n2) in [((3, 5, 1), (2, 3)), ((4, 7, 2), (2, 3)),
                                ((2, 3, 1), (1, 1)), ((5, 7, 3), (2, 1))]:
        lhs = rho_proj(k, n, s)
        rhs = rho_proj(k2, n2, 0)
        assert lhs == (rhs if s % 2 == 0 else -rhs)
        if s % 2 == 1:
            assert lhs != rhs


@pytest.mark.parametrize("n,k_max", [(1, 8), (3, 8), (5, 8), (7, 8), (9, 6), (11, 4)])
def test_rho_proj_matches_the_reduction_oracle(n, k_max):
    """The e_s-coordinate recursion gives every rho_{k,n,s} that reducing
    xi_{k,n} in R-bar_n and reading its delta-supports gives."""
    for k in range(k_max + 1):
        want = rho_proj_all_by_reduction(k, n)
        assert [rho_proj(k, n, s) for s in range(n + 1)] == [want[s] for s in range(n + 1)]
        assert all(rho_proj(k, n, s).is_zero() for s in range(k + 1, n + 1))


@pytest.mark.parametrize("args,message", [
    ((2, 4, 1), "n must be odd"),
    ((2, 0, 0), "projection route needs n >= 1"),
    ((2, -1, 0), "s must be in 0..-1"),
    ((2, 3, 4), "s must be in 0..3"),
    ((2, 3, -1), "s must be in 0..3"),
    ((-1, 3, 0), "xi needs k >= 0"),
    ((0, 4, 1), "n must be odd"),
])
def test_rho_proj_errors(args, message):
    with pytest.raises(ValueError) as err:
        rho_proj(*args)
    assert str(err.value) == message


@pytest.mark.parametrize("args,message", [
    ((-1, 3), "xi needs k >= 0"),
    ((-1, 4), "xi needs k >= 0"),
    ((2, 4), "n must be odd"),
    ((2, 0), "projection route needs n >= 1"),
    ((-1, -1), "projection route needs n >= 1"),
])
def test_rho_proj_all_errors(args, message):
    """The messages and their precedence are those of the route through xi."""
    with pytest.raises(ValueError) as err:
        relations._rho_proj_all(*args)
    assert str(err.value) == message


def test_rho_series_matches_the_literal_route_with_s():
    """The plain t-series route equals the defining series evaluated literally
    with s = sqrt(-beta) adjoined, its odd part in s cancelling."""
    for r in range(-5, 10, 2):
        assert [rho_series(k, r) for k in range(11)] == \
            [rho_series_with_s(k, r) for k in range(11)]


def test_rho_linear_independence():
    """The family rho_{k, r+2j}, j <= floor(k/2), is linearly independent."""
    for r in (1, 3):
        for k in (4, 5, 6):
            fam = [rho_proj(k, r + 2 * j, 0) for j in range(k // 2 + 1)]
            monos = sorted({e for p in fam for e in p.terms})
            index = {e: i for i, e in enumerate(monos)}
            rows = []
            for p in fam:
                vec = [F(0)] * len(monos)
                for e, c in p.terms.items():
                    vec[index[e]] = c
                rows.append(vec)
            assert rank(Matrix(rows)) == len(fam)


# -- W ---------------------------------------------------------------------------


def test_w_family_one_point():
    """W(g, 1, {1}, -1) is the sign-minus family: (-1)^g phi_negate(r_g) has its
    top component, and its sub-leading one exactly for g <= 2 and up to a
    nonzero multiple of delta^2 + beta beyond, the rule A7 applies to sign +."""
    eta = EtaChoice({1}, 1)
    w, d = Poly.variable(W1, "omega"), Poly.variable(W1, "delta1")
    assert w_skeleton(1, 1, eta, -1) == w + d * F(1, 2) + 1
    reduce_spec = QuotientSpec()
    for g in range(1, 6):
        minus, want = phi_negate(r_poly(g)) * (-1) ** g, w_skeleton(g, 1, eta, -1)
        assert minus.homogeneous_component(2 * g) == want.homogeneous_component(2 * g)
        diff = minus.homogeneous_component(2 * g - 2) - want.homogeneous_component(2 * g - 2)
        assert diff.is_zero() == (g <= 2), g
        assert canonical_rep(diff, reduce_spec).is_zero(), g


def test_w_skeleton_is_r1():
    eta = EtaChoice({1}, 1)
    assert w_skeleton(1, 1, eta, 1) == r_poly(1)
    assert w_skeleton(1, 1, eta, 1).ring == W1


def test_w_skeleton_takes_a_sign():
    eta = EtaChoice({1}, 1)
    for eps in (0, 2, -2, None):
        with pytest.raises(ValueError, match="eps"):
            w_skeleton(1, 1, eta, eps)


def test_eta_parity_validation():
    EtaChoice({1}, 1)           # m = 0 even, |eta| odd: fine
    EtaChoice(set(), 3)         # m = 1 odd, |eta| even: fine
    EtaChoice({1, 2}, 3)
    with pytest.raises(ValueError):
        EtaChoice(set(), 1)
    with pytest.raises(ValueError):
        EtaChoice({1}, 3)
    with pytest.raises(ValueError):
        EtaChoice({5}, 3)


# -- generator sets ----------------------------------------------------------------


def test_igen_unit_at_genus_zero():
    gs = igen(0, 1, "odd")
    names = [name for name, _ in gs.gens]
    assert "delta1^2+beta" in names and "gamma^1" in names
    assert any(p == Poly.constant(R1, 1) for _, p in gs.gens)  # unit ideal


def test_igen_g1_list():
    gs = igen(1, 1, "odd")
    polys = [p for _, p in gs.gens]
    assert Poly.variable(R1, "delta1") ** 2 + Poly.variable(R1, "beta") in polys
    assert Poly.variable(R1, "gamma") ** 2 in polys
    for k in (1, 2, 3):
        assert xi(k, 1) in polys
    assert len(gs) == 5


def test_igen_even_parity_is_odd_flip_of_odd():
    g_odd = igen(1, 1, "odd")
    g_even = igen(1, 1, "even")
    flipped = {str(p.change_coordinates(OMEGA).flip([1])) for _, p in g_odd.gens}
    assert {str(p.change_coordinates(OMEGA)) for _, p in g_even.gens} == flipped


def test_igen_gamma_power_redundant():
    """gamma^{g+1} lies in the ideal of the other generators (used by the models)."""
    from instanton.floer import graded_ideal_dims
    gs = igen(1, 1, "even")
    without = GeneratorSet(gs.label, gs.ambient,
                           [gv for gv in gs.gens if not gv[0].startswith("gamma^")],
                           meta=gs.meta)
    spec = QuotientSpec()
    full = graded_ideal_dims(gs, 16, spec)
    reduced = graded_ideal_dims(without, 16, spec)
    assert full == reduced


def test_kprime_gen_examples():
    gs = kprime_gen(0, 1)
    assert len(gs) == 2
    assert gs.gens[0][1] == Poly.constant(W1, 1)
    assert gs.gens[1][1] == Poly.variable(W1, "omega") - Poly.variable(W1, "delta1") * F(1, 2)
    gs3 = kprime_gen(0, 3)
    assert len(gs3) == 8  # 4 even flips per xi-bar, two xi-bars


def test_r_poly_paper_values():
    w, b, d = Poly.variable(W1, "omega"), Poly.variable(W1, "beta"), Poly.variable(W1, "delta1")
    wd = w + d * F(1, 2)
    assert r_poly(0) == Poly.constant(W1, 1)
    assert r_poly(1) == wd - 1
    assert r_poly(2) == (wd * wd - b) * F(1, 2) + (w - d * F(1, 2)) - F(1, 2)


def test_r_poly_recursion_step():
    w, b, c, d = (Poly.variable(W1, v) for v in W1.var_names)
    wd = w + d * F(1, 2)
    expected = ((wd - 5) * r_poly(2) - (b - d * 2 - 2) * r_poly(1) * 2
                - c * F(1, 2)) * F(1, 3)
    assert r_poly(3) == expected


def test_r_poly_local_base_and_specialization():
    wl = ring(1, coeff_kind="laurent_u", coordinate=OMEGA)
    w, d = Poly.variable(wl, "omega"), Poly.variable(wl, "delta1")
    u1, u2 = (Poly.constant(wl, LaurentU.u_power(-k)) for k in (1, 2))
    assert r_poly(1, local=True) == w + d * F(1, 2) - u1
    assert r_poly(2, local=True) == ((w + d * F(1, 2)) ** 2 - Poly.variable(wl, "beta")) * F(1, 2) \
        + (w - d * F(1, 2)) * u1 - u2 * F(1, 2)
    for g in range(7):
        assert specialize_u(r_poly(g, local=True), F(1)) == r_poly(g)


@pytest.mark.parametrize("local", [False, True])
def test_r_poly_matches_the_written_bases_oracle(local):
    """r_1 and r_2 follow from r_0 = 1 and the recursion step."""
    for g in range(9):
        assert r_poly(g, local) == r_poly_from_written_bases(g, local)


def test_r_poly_runs_the_step_only_past_the_memoized_terms(monkeypatch):
    monkeypatch.setattr(relations, "_r_cache", {})
    steps = []
    step = relations._r_step
    monkeypatch.setattr(relations, "_r_step", lambda rng, h: steps.append(h) or step(rng, h))
    for g in (2, 5, 3, 6):
        assert r_poly(g) == r_poly_from_written_bases(g)
    assert steps == [1, 2, 3, 4, 5, 6]


def test_subleading_structure_of_r():
    """Top component is the flipped Mumford relation; the next one matches the
    closed form exactly for g <= 2 and modulo (delta^2 + beta) afterwards."""
    reduce_spec = QuotientSpec()
    for g in range(1, 6):
        rg = r_poly(g)
        assert rg.homogeneous_component(2 * g) == \
            xi(g, 1).change_coordinates(OMEGA).flip([1])
        want = xi(g - 1, -1, target=R1).change_coordinates(OMEGA) * ((-1) ** g)
        diff = rg.homogeneous_component(2 * g - 2) - want
        if g <= 2:
            assert diff.is_zero()
        else:
            assert not diff.is_zero()
            assert canonical_rep(diff, reduce_spec).is_zero()
    # the frozen g=3 discrepancy: (1/2) * (delta^2 + beta)
    d3 = r_poly(3).homogeneous_component(4) - \
        xi(2, -1, target=R1).change_coordinates(OMEGA) * -1
    w1 = ring(1, coordinate=OMEGA)
    assert d3 == (Poly.variable(w1, "delta1") ** 2 + Poly.variable(w1, "beta")) * F(1, 2)


def test_jgen_examples():
    gs0 = jgen_n1(0)
    assert gs0.gens[0][1] == Poly.constant(W1, 1)  # r_0 = 1: unit ideal
    gs1 = jgen_n1(1)
    assert [name for name, _ in gs1.gens] == ["r_1", "r_2", "r_3", "delta^2+beta-2"]
    assert gs1.gens[0][1] == r_poly(1)
    minus = jgen_n1(1, sign="-")
    for (name_p, p), (_name_m, pm) in zip(gs1.gens, minus.gens):
        assert pm == phi_negate(p)


def test_jgen_local_relation():
    gs = jgen_n1(1, local=True)
    rel = gs.gens[-1][1]
    wl = rel.ring
    u2 = Poly.constant(wl, LaurentU({2: 1, -2: 1}))
    expected = Poly.variable(wl, "delta1") ** 2 + Poly.variable(wl, "beta") - u2
    assert rel == expected


def test_phi_negate_in_both_coordinates():
    a, b, c, d = (Poly.variable(R1, v) for v in R1.var_names)
    f = a * c + b * d
    g = phi_negate(f)
    assert g == a * c - b * d
    assert phi_negate(f.change_coordinates(OMEGA)) == g.change_coordinates(OMEGA)


def test_eigenvalue_annihilation():
    """Every generator of the plus ideal vanishes at the alternating odd points."""
    for g in range(1, 5):
        gens = jgen_n1(g)
        for i in range(1, g + 1):
            lam = (-1) ** (i - 1) * (2 * i - 1)
            for name, p in gens.gens:
                assert p.evaluate_alpha_point(lam, 2, 0, [0]) == 0, (g, i, name)


def test_gamma_cofactor_identity_all_variants():
    for g in (1, 2, 3):
        for sign in ("+", "-"):
            cof = gamma_cofactors(g, sign=sign)
            gens = jgen_n1(g, sign=sign)
            total = Poly.zero(gens.ambient)
            for i, a in cof.items():
                total = total + a * gens.gens[i][1]
            target = Poly.variable(gens.ambient.with_coordinate(OMEGA), "gamma") ** g
            assert total == target


# -- flip orbits against the round-trip oracle ---------------------------------------


def _digest(doc) -> str:
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()[:16]


def _xi_orbits(g, n, parity, ks):
    """igen's named xi orbits for the given k, by the round-trip oracle."""
    m = (n - 1) // 2
    even = (int(parity == "odd") + m) % 2 == 1
    return [gen for k in ks
            for gen in orbit_by_round_trip(xi(k, n, target=ring(n)), f"xi_{{{k},{n}}}", n, even)]


IGEN_PAIRS = sorted(set(acceptance._A3_PAIRS) | set(acceptance._A4_PAIRS) | {(2, 3), (1, 5)})


@pytest.mark.parametrize("parity", ["even", "odd"])
@pytest.mark.parametrize("g,n", IGEN_PAIRS)
def test_igen_matches_round_trip_flips(g, n, parity):
    m = (n - 1) // 2
    gens = igen(g, n, parity).gens
    assert gens[n + 1:] == _xi_orbits(g, n, parity, range(g + m, g + m + 3))


# JSON digests of igen(0, 7), recorded when every alpha-coordinate flip went
# through omega-coordinates and back (the round-trip oracle takes 10 s here)
IGEN_0_7 = {"even": "ce14998b03155df0", "odd": "2fb931c811f15920"}


@pytest.mark.parametrize("parity", ["even", "odd"])
def test_igen_0_7_matches_round_trip_flips(parity):
    gs = igen(0, 7, parity)
    assert gs.gens[8:8 + 64] == _xi_orbits(0, 7, parity, [3])
    assert _digest(gs.to_json()) == IGEN_0_7[parity]


KPRIME = {(1, 1): "8f8cf6d276f17b5c", (2, 1): "b82d6ebd95108148", (0, 3): "aca7c541b1fbecc4",
          (1, 3): "7729229804fce5e9", (0, 5): "435616a2a68058ea"}


@pytest.mark.parametrize("g,n", sorted(KPRIME))
def test_kprime_gen_names_and_polys_pinned(g, n):
    m = (n - 1) // 2
    gs = kprime_gen(g, n)
    assert gs.gens == [gen for k in (g + m, g + m + 1) for gen in orbit_by_round_trip(
        canonical_rep(xi(k, n), rbar_spec()), f"xibar_{{{k},{n}}}", n)]
    assert _digest(gs.to_json()) == KPRIME[(g, n)]


SOLVED = {0: "5aa1457c5f48f8ec", 1: "1b7170e599c79ea9", 2: "681908b6a460794e"}


@pytest.mark.parametrize("g", sorted(SOLVED))
def test_solve_subleading_names_and_polys_pinned(g):
    gs = solve_subleading(g)
    assert gs.gens == orbit_by_round_trip(gs.meta["f_hat"], f"fhat_{{{g},3}}", 3)
    assert _digest(gs.to_json()) == SOLVED[g]


# JSON digests of rho_series(k, r) for k <= 8, of jgen_n1(g, sign, local) for
# g <= 6 and of gamma_power_witness(g, sign, local) for 1 <= g <= 5, recorded
# when the series products and the r_g step were each written out twice
RHO_SERIES = {-3: "595cc81540f46056", -1: "5d98136aec6b5013", 1: "2377a389c4487cb2",
              3: "f11d170517f62590", 5: "87279d8bfdc46e15", 7: "db29ae4f9f5fb0e1"}
JGEN_N1 = {("+", False): "6577248eb9fb13af", ("+", True): "fa26110be77b844b",
           ("-", False): "d96ab7c366430c2d", ("-", True): "2e8ff5741dcba758"}
GAMMA_WITNESS = {("+", False): "82f8d9426318c194", ("+", True): "93c029eb3cea9610",
                 ("-", False): "4f89b4b0be794f26", ("-", True): "a47735fad335ca40"}


@pytest.mark.parametrize("r", sorted(RHO_SERIES))
def test_rho_series_pinned(r):
    assert _digest([rho_series(k, r).to_json() for k in range(9)]) == RHO_SERIES[r]


def test_rho_series_pinned_to_order_14():
    """One digest of rho_series(k, r) for k <= 14 and every odd r in -9..13,
    recorded when the series ran through powers and exp of truncated series."""
    doc = [rho_series(k, r).to_json() for r in range(-9, 14, 2) for k in range(15)]
    assert _digest(doc) == "285dda919729f574"


@pytest.mark.parametrize("args,message", [
    ((-1, 1), "k must be >= 0"),
    ((3, 2), "r must be odd"),
])
def test_rho_series_errors(args, message):
    with pytest.raises(ValueError) as err:
        rho_series(*args)
    assert str(err.value) == message


@pytest.mark.parametrize("sign,local", sorted(JGEN_N1))
def test_jgen_n1_and_gamma_witness_pinned(sign, local):
    assert _digest([jgen_n1(g, sign, local).to_json() for g in range(7)]) == \
        JGEN_N1[(sign, local)]
    witnesses = [{name: p.to_json() for name, p in gamma_power_witness(g, sign, local).items()}
                 for g in range(1, 6)]
    assert _digest(witnesses) == GAMMA_WITNESS[(sign, local)]


def test_three_point_ideals_names_and_polys_pinned():
    J, I, _ = _marked_ideals(1, 3)
    gamma3 = Poly.variable(ring(3), "gamma")
    assert I.gens[-4:] == [(f"gamma*{name}", gamma3 * p) for name, p in
                           orbit_by_round_trip(xi(1, 3, target=ring(3)), "xi_{1,3}", 3)]
    assert _digest(J.to_json()) == "a5c4592b9e07cf75"
    assert _digest(I.to_json()) == "75565852405ed1cf"


@pytest.mark.parametrize("n", [1, 3, 5])
def test_flip_marker_names_whole_orbits(n):
    """Every even flip of a representative is +- a generator, and every
    generator is +- an even flip of a representative."""
    m = (n - 1) // 2
    for gs in (igen(1, n, "even"), igen(1, n, "odd"), kprime_gen(1, n),
               acceptance._a12_flips(n, m), acceptance._a12_flips(n, m + 1)):
        gens = {p for _, p in gs.gens}
        orbits = set()
        for _, rep in gs.representatives().gens:
            for I in flip_subsets(n, even=True):
                image = rep.flip(I)
                assert image in gens or -image in gens, (gs.label, I)
                orbits |= {image, -image}
        assert gens <= orbits, gs.label


def test_sets_built_from_a_marked_set_are_unmarked():
    gs = igen(1, 3, "even")
    assert gs.flip_reps is not None
    assert _one_point_ideals(1)[1].flip_reps is None
    assert _marked_ideals(1, 3)[1].flip_reps is None
    assert GeneratorSet(gs.label, gs.ambient, gs.gens, gs.meta).to_json() == gs.to_json()


def test_flip_orbit_names_and_order():
    p = Poly.variable(ring(3, coordinate=OMEGA), "delta1")
    assert flip_orbit(p, "d", 3) == [("tau_{}(d)", p), ("tau_{1,2}(d)", -p),
                                     ("tau_{1,3}(d)", -p), ("tau_{2,3}(d)", p)]
    assert [name for name, _ in flip_orbit(p, "d", 3, even=False)] == [
        "tau_{1}(d)", "tau_{2}(d)", "tau_{3}(d)", "tau_{1,2,3}(d)"]
