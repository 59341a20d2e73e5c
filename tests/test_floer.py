import hashlib
from fractions import Fraction as F

import pytest

from conftest import random_poly
from oracles import (HeapModularTables, UnfoldedModularTables, deforming_pairs_by_scan,
                     eigen_multiplicities, exact_basis, graded_ranks_by_products,
                     lift_table_model, lift_table_model_n3, matrix_power, replay)

from instanton import acceptance, floer, linalg
from instanton.acceptance import _A3_PAIRS, _A4_PAIRS, _a12_flips
from instanton.floer import (EigenReport, QuotientModel, VerificationError,
                             decomposition_identity_check, eigen_verify,
                             expand_rational_fn, gamma_power_witness,
                             graded_ideal_dims, hilbert_compare, model_for,
                             marked_model, ptgn_series, solve_subleading)
from instanton.linalg import Matrix
from instanton.poly import ALPHA, OMEGA, Poly, ring
from instanton.quotient import (QuotientSpec, canonical_monomials, mod_beta_spec,
                                rbar_spec)
from instanton.relations import (EtaChoice, GeneratorSet, igen, jgen_n1, kprime_gen,
                                 r_poly, w_skeleton, xi)
from instanton.series import RationalFn

R1 = ring(1)


def test_graded_ideal_dims_single_gamma():
    gs = GeneratorSet("gamma", R1, [("gamma", Poly.variable(R1, "gamma"))])
    dims = graded_ideal_dims(gs, 6, QuotientSpec())
    assert dims[6] == 1
    assert dims[:6] == [0] * 6


def test_graded_quotient_dims_match_series_small():
    rep = hilbert_compare(1, 1, "ptgn", 8)
    computed = [c for d, c, f in rep.degrees if d % 2 == 0]
    assert computed == [1, 1, 0, 0, 0]
    assert rep.match


def test_full_ring_and_reduced_paths_agree():
    """Quotient dims computed in the free polynomial ring (the product oracle
    without a spec) equal the reduced-ring path."""
    full = [size - rank for size, rank in graded_ranks_by_products(igen(1, 1, "odd"), 10, None)]
    rep = hilbert_compare(1, 1, "ptgn", 10)
    reduced = [c for _d, c, _f in rep.degrees]
    assert full == reduced


@pytest.mark.parametrize("g, n", _A3_PAIRS + [(2, 3), (3, 1)])
def test_ptgn_dims_of_the_whole_igen_are_those_of_its_xi_generators(g, n):
    """delta_i^2 + beta and gamma^{g+1} reduce to zero in the ring of the ptgn
    source, so passing the whole igen changes no dimension."""
    from instanton.floer import graded_quotient_dims
    gens = igen(g, n, "odd" if (1 + (n - 1) // 2) % 2 == 1 else "even")
    xi_only = GeneratorSet(gens.label, gens.ambient, [gv for gv in gens.gens if "xi" in gv[0]])
    spec = QuotientSpec(gamma_truncation=g + 1)
    rep = hilbert_compare(g, n, "ptgn", 6 * g + 8)
    assert [c for _d, c, _f in rep.degrees] == graded_quotient_dims(xi_only, 6 * g + 8, spec)


def test_hilbert_total_and_k_sources():
    assert hilbert_compare(0, 3, "total", 8).match
    rep = hilbert_compare(0, 3, "k", 8)
    assert rep.match
    assert [c for d, c, _f in rep.degrees if d % 2 == 0] == [0, 4, 8, 12, 16]


def test_kprime_dims_reproduce_lemma_value():
    dims = graded_ideal_dims(kprime_gen(0, 3), 10, rbar_spec())
    for i in range(4):
        assert dims[2 * (1 + i)] == 4 * (i + 1)


def _unmarked(gens):
    """The same generators with no flip marker: the trivial group, one block."""
    return GeneratorSet(gens.label, gens.ambient, gens.gens, gens.meta)


def _graded_case(source, g, n):
    """(generator set, spec, max degree) of ``hilbert_compare`` at A3's and A4's degrees."""
    if source == "ptgn":
        parity = "odd" if (1 + (n - 1) // 2) % 2 == 1 else "even"
        return igen(g, n, parity), QuotientSpec(gamma_truncation=g + 1), 6 * g + 8
    return kprime_gen(g, n), rbar_spec(), 2 * (g + (n - 1) // 2 + 4)


@pytest.mark.parametrize("source, g, n", [("ptgn", g, n) for g, n in _A3_PAIRS]
                         + [("k", g, n) for g, n in _A4_PAIRS + [(2, 3), (3, 1), (1, 5)]]
                         + [("ptgn", 3, 3), ("k", 3, 3), ("k", 2, 5)])
def test_blocked_ranks_match_the_unmarked_copy(source, g, n):
    """The integer rows of the orbit representatives give the ranks of the
    rational product rows (the oracle) and of the unmarked full orbits."""
    gens, spec, top = _graded_case(source, g, n)
    assert gens.flip_reps is not None
    ranks = floer._graded_ranks(gens, top, spec)
    assert ranks == graded_ranks_by_products(gens, top, spec)
    assert ranks == floer._graded_ranks(_unmarked(gens), top, spec)


@pytest.mark.parametrize("source, g, n", [("ptgn", 2, 5), ("ptgn", 1, 7), ("k", 1, 7),
                                          ("ptgn", 0, 9)])
def test_blocked_ranks_at_larger_n_match_the_product_oracle(source, g, n):
    """Here the unmarked route, one block over every member of every orbit,
    takes 25 to 120 s raw per case on a 2-core x86_64 VM, so the rational
    product rows of the representatives (the oracle) and the formulas check
    the integer rows."""
    gens, spec, top = _graded_case(source, g, n)
    ranks = floer._graded_ranks(gens, top, spec)
    assert ranks == graded_ranks_by_products(gens, top, spec)
    assert hilbert_compare(g, n, source, top).match


@pytest.mark.parametrize("n", [3, 5])
def test_blocked_a12_ranks_match_the_unmarked_copy(n):
    m = (n - 1) // 2
    for s in (m, m + 1):
        gens = _a12_flips(n, s)
        assert gens.flip_reps is not None
        ranks = floer._graded_ranks(gens, 2 * s + 2, mod_beta_spec())
        assert ranks == graded_ranks_by_products(gens, 2 * s + 2, mod_beta_spec())
        assert ranks == floer._graded_ranks(_unmarked(gens), 2 * s + 2, mod_beta_spec())


def test_ptgn_ranks_build_no_xi_member_but_the_representatives(monkeypatch):
    """``hilbert_compare`` reads igen's xi orbits through their representatives,
    so its only alpha-coordinate flips are tau_{} of the three even orbits at
    (1, 5); building every member would take 15 more substitutions per orbit."""
    alpha_flips = []
    flip = Poly.flip

    def counted(self, indices):
        indices = tuple(indices)
        if self.ring.coordinate == ALPHA:
            alpha_flips.append(indices)
        return flip(self, indices)
    monkeypatch.setattr(Poly, "flip", counted)
    assert hilbert_compare(1, 5, "ptgn", 14).match
    assert alpha_flips == [()] * 3


@pytest.mark.parametrize("source, max_degree", [("k", 14), ("ptgn", 8)])
def test_blocked_ranks_at_seven_points_match_the_formulas(source, max_degree):
    """The unblocked route takes 48 s on (0, 7, "k", 14), so the formulas are the oracle."""
    assert hilbert_compare(0, 7, source, max_degree).match


def test_blocked_ranks_form_one_product_per_representative_and_cofactor(monkeypatch):
    """The marked set forms at most one product row per (orbit
    representative, cofactor monomial); the unmarked route forms one per
    generator, 16 times as many at n = 5."""
    gens, spec, top = _graded_case("k", 0, 5)
    orbit_heads = [p for _, p in gens.gens[::16]]  # kprime_gen(0, 5) is two whole orbits of 16 flips
    bound = sum(len(canonical_monomials(gens.ambient, spec, d - p.degree()))
                for p in orbit_heads for d in range(0, top + 1, 2))
    products = []
    product_row = floer._product_row

    def counted(terms, mono, *args):
        products.append(mono)
        return product_row(terms, mono, *args)
    monkeypatch.setattr(floer, "_product_row", counted)
    assert hilbert_compare(0, 5, "k", top).match
    assert 0 < len(products) <= bound


def test_graded_ranks_reject_an_inhomogeneous_generator():
    rng = ring(3, coordinate=OMEGA)
    gens = GeneratorSet.of_orbits("bad", rng, [[("omega+1", Poly.variable(rng, "omega") + 1)]], {})
    with pytest.raises(ValueError, match="inhomogeneous generator omega\\+1 in graded mode"):
        graded_ideal_dims(gens, 4, rbar_spec())
    with pytest.raises(ValueError, match="inhomogeneous generator omega\\+1 in graded mode"):
        graded_ideal_dims(_unmarked(gens), 4, rbar_spec())
    with pytest.raises(ValueError, match="inhomogeneous generator omega\\+1 in graded mode"):
        floer._ideal_pieces(gens, rbar_spec())


@pytest.mark.parametrize("g, n, source, top, reps", [(1, 5, "ptgn", 14, 9), (0, 5, "k", 12, 2)])
def test_graded_ranks_reduce_each_representative_once(monkeypatch, g, n, source, top, reps):
    """``_ideal_pieces`` brings each orbit representative to canonical form
    once, whatever the number of degrees: igen(1, 5) has 9 orbits and
    kprime_gen(0, 5) 2."""
    calls = []
    canonical_rep = floer.canonical_rep

    def counted(f, spec):
        calls.append(f)
        return canonical_rep(f, spec)
    monkeypatch.setattr(floer, "canonical_rep", counted)
    assert hilbert_compare(g, n, source, top).match
    assert len(calls) == reps


def test_decomposition_identity():
    assert decomposition_identity_check(0, 3, 30)     # reduces to the total itself
    assert decomposition_identity_check(1, 1, 40)
    assert decomposition_identity_check(2, 3, 40)


def test_model_dims_and_basis():
    m0 = model_for(0)
    assert m0.dim == 0
    m1 = model_for(1)
    assert m1.dim == 2
    assert [mono for _d, mono in m1.basis] == [(0, 0, 0, 0), (0, 0, 0, 1)]  # {1, delta}
    m2 = model_for(2)
    assert m2.dim == 8
    assert sum(expand_rational_fn(ptgn_series(2, 1), 20)) == 8


@pytest.mark.parametrize("sign,theta", [("+", None), ("-", None), ("+", F(2))])
def test_genus_zero_models_are_empty(sign, theta):
    """An empty basis takes the general build: 0 x 0 operators over
    denominator 1 and an empty monomial-vector memo."""
    model = QuotientModel(*floer._one_point_ideals(0, sign, theta))
    assert model.dim == 0 and model._memo == {}
    for var in model.ring.var_names:
        op = model.operator(var)
        assert (op.rows, op.cols, op.den) == (0, 0, 1)
    assert model.normal_form(model.J.gens[0][1]) == []


def test_model_rejects_non_deforming_pair():
    # the unit graded ideal is not deformed by a proper inhomogeneous ideal
    J = jgen_n1(1)
    bad_I = GeneratorSet("bad", R1, [("one", Poly.constant(R1, 1))])
    with pytest.raises(VerificationError, match="no J-generator deforms I-generator one"):
        QuotientModel(J, bad_I, RationalFn([1]))


PAIRING_CASES = [(g, sign, None) for g in range(6) for sign in "+-"] + [
    (2, "+", F(2)), (2, "+", F(3, 2)), (2, "+", F(5, 3)), "n3_g0", "n3_g1", "n3_g2",
    "rescaled_copies"]


def _rescaled_copies_ideals():
    """The (2, +) one-point ideals with every I-generator scaled by -2/3, and
    before each J-generator a copy of it scaled by 5 plus 7, which has the
    same leading form up to that scalar."""
    J, I, formula = floer._one_point_ideals(2, "+")
    J = GeneratorSet(J.label, J.ambient, [(name + "'", p * 5 + 7) for name, p in J.gens] + J.gens)
    I = GeneratorSet(I.label, I.ambient, [(name, p * F(-2, 3)) for name, p in I.gens])
    return J, I, formula


@pytest.mark.parametrize("case", PAIRING_CASES,
                         ids=lambda c: c if isinstance(c, str) else f"g{c[0]}{c[1]}_theta{c[2] or 1}")
def test_leading_form_lookup_pairs_as_the_scan_did(monkeypatch, case):
    """The build pairs each I-generator with the rescaled J-generator that a
    scan of every J-generator's leading form chose."""
    if case == "rescaled_copies":
        ideals = _rescaled_copies_ideals()
    elif isinstance(case, str):
        ideals = floer._marked_ideals(int(case[-1]), 3)
    else:
        ideals = floer._one_point_ideals(*case)
    seen = []
    monkeypatch.setattr(QuotientModel, "_certified_operators",
                        lambda self, pairs, want, jpolys: seen.append(pairs))
    QuotientModel(*ideals)
    jpolys, ipolys = ([(name, p.change_coordinates(OMEGA)) for name, p in gens.gens]
                      for gens in ideals[:2])
    assert seen == [deforming_pairs_by_scan(ipolys, jpolys)]


def test_model_rejects_laurent_coefficients_as_bad_input():
    # u must be specialized first; this is bad input, not a failed verification
    with pytest.raises(ValueError, match="rational coefficients") as exc:
        QuotientModel(jgen_n1(1, local=True), *floer._one_point_ideals(1)[1:])
    assert not isinstance(exc.value, VerificationError)


def test_normal_form_examples():
    m1 = model_for(1)
    assert m1.normal_form(r_poly(1)) == [0, 0]
    a = xi(1, 1)  # alpha
    assert m1.normal_form(a.change_coordinates(OMEGA)) == [1, -1]
    assert m1.normal_form(Poly.variable(m1.ring, "gamma")) == [0, 0]


def test_normal_form_refuses_a_polynomial_of_another_ring():
    """normal_form reads its input in the model's own ring once in
    omega-coordinates: beta over three marked points, or with Laurent
    coefficients, is not taken for the one-point beta."""
    model = model_for(1, "+")
    for rng in (ring(3, coordinate=OMEGA), ring(1, coeff_kind="laurent_u", coordinate=OMEGA)):
        with pytest.raises(ValueError, match="ring mismatch"):
            model.normal_form(Poly.variable(rng, "beta"))


def test_normal_form_is_linear():
    m2 = model_for(2)
    f = r_poly(2) * Poly.variable(m2.ring, "omega") + Poly.variable(m2.ring, "gamma")
    g = Poly.variable(m2.ring, "omega") ** 3
    nf = m2.normal_form
    left = nf(f + g)
    right = [a + b for a, b in zip(nf(f), nf(g))]
    assert left == right


def test_membership_and_witness():
    m1 = model_for(1)
    w1 = m1.ring
    # gamma = 2[(omega + delta/2 - 5) r_2 - 2(beta - 2 delta - 2) r_1 - 3 r_3]
    w, b, c, d = (Poly.variable(w1, v) for v in w1.var_names)
    wd = w + d * F(1, 2)
    combo = ((wd - 5) * r_poly(2) - (b - d * 2 - 2) * r_poly(1) * 2 - r_poly(3) * 3) * 2
    assert combo == c
    assert m1.membership(c)
    rel = d ** 2 + b - 2
    assert m1.membership(rel)
    assert m1.membership(Poly.zero(w1))
    assert not m1.membership(Poly.constant(w1, 1))


@pytest.mark.parametrize("sign", ["+", "-"])
@pytest.mark.parametrize("g", [1, 2, 3, 4, 5])
def test_minimal_polynomial_of_beta_on_the_one_point_model(g, sign):
    """(beta - 2)^g (beta + 2)^g lies in J, and neither exponent can be
    lowered to g - 1: 1 generates R/J, so this is the minimal polynomial of
    the operator of beta."""
    model = model_for(g, sign)
    b = Poly.variable(model.ring, "beta")
    assert model.membership((b - 2) ** g * (b + 2) ** g)
    assert not model.membership((b - 2) ** (g - 1) * (b + 2) ** g)
    assert not model.membership((b - 2) ** g * (b + 2) ** (g - 1))


def test_gamma_power_witness_membership():
    for g in (1, 2, 3):
        witness = gamma_power_witness(g)
        assert set(witness) == {f"r_{g}", f"r_{g + 1}", f"r_{g + 2}"}
        model = model_for(g)
        assert model.membership(Poly.variable(model.ring, "gamma") ** g)


def test_operators_commute_and_leading_containment():
    m2 = model_for(2)
    assert m2._commute()
    # leading order of r_g sits in the degree-2g piece of the graded ideal
    for g in (1, 2, 3, 4):
        gs = igen(g, 1, "even")
        spec = QuotientSpec(gamma_truncation=g + 1)
        lead = r_poly(g).leading_order()
        from instanton.quotient import canonical_rep, canonical_monomials
        from instanton.floer import _ideal_pieces
        from oracles import row_rank
        basis, rows = _ideal_pieces(gs, spec)(2 * g)
        vectors = list(rows)
        red = canonical_rep(lead, spec)
        vec = {}
        for e, c in red.terms.items():
            vec[basis.index(e)] = c
        with_lead = row_rank(vectors + [vec], len(basis))
        assert with_lead == row_rank(vectors, len(basis))


def test_eigen_g1_full_spectrum():
    m1 = model_for(1)
    from instanton.linalg import Matrix, kernel_basis, subspace_intersection
    D = m1.dim
    tuples = [(F(1), F(2), F(0), F(0)), (F(-1), F(-2), F(0), F(2))]
    total = 0
    for av, bv, cv, dv in tuples:
        space = None
        for var, lam in zip((ALPHA, "beta", "gamma", "delta1"), (av, bv, cv, dv)):
            op = m1.operator(var)
            ker = kernel_basis(matrix_power(op - Matrix.identity(D).scale(lam), D))
            space = ker if space is None else subspace_intersection(space, ker)
        assert space.rows >= 1
        total += space.rows
    assert total == D


def test_eigen_reports():
    rep = eigen_verify(1, "+")
    assert rep.subspace_dim == 1
    assert [t["alpha"] for t in rep.tuples] == [F(1)]
    rep2 = eigen_verify(2, "+")
    assert sorted(t["alpha"] for t in rep2.tuples) == [F(-3), F(1)]
    repm = eigen_verify(2, "-")
    assert sorted(t["alpha"] for t in repm.tuples) == [F(-1), F(3)]
    doc = rep2.to_json()
    assert doc["subspace_dim"] == rep2.subspace_dim
    assert all(set(t) == {"alpha", "beta", "gamma", "delta", "gen_mult"}
               for t in doc["tuples"])


def test_eigen_local_theta():
    rep = eigen_verify(1, "+", theta=F(2))
    assert rep.subspace_dim >= 1
    # alpha value: (-1)^{g+1}(2g-2+theta) at g=1 is theta
    assert rep.tuples[0]["alpha"] == F(2)


@pytest.mark.parametrize("call", [
    lambda: floer.local_eigen_point(1, "+", F(0)),
    lambda: model_for(1, "+", F(0)),
    lambda: eigen_verify(2, "-", F(0)),
], ids=["local_eigen_point", "model_for", "eigen_verify"])
def test_theta_zero_is_refused_up_front(call):
    with pytest.raises(ValueError, match="^theta must be a nonzero rational$"):
        call()


def test_solver_genus_zero_exact():
    gs = solve_subleading(0)
    f_hat = gs.meta["f_hat"].change_coordinates(ALPHA)
    rng3 = ring(3)
    assert f_hat == Poly.variable(rng3, "alpha") - 1
    assert len(gs) == 4  # even flips of {1,2,3}


def test_solver_genus_one_value_and_membership():
    gs = solve_subleading(1)
    f_hat = gs.meta["f_hat"].change_coordinates(ALPHA)
    a, _b, _c, d1, d2, d3 = (Poly.variable(ring(3), v) for v in ring(3).var_names)
    expected = a ** 2 * F(1, 2) + a + d1 + d2 + d3 - F(3, 2)
    assert f_hat == expected
    m1 = model_for(1)
    for _name, p in gs.gens:
        assert m1.membership(p.pi_reduce())


@pytest.mark.parametrize("g", [0, 1])
def test_solver_reports_an_infeasible_system(monkeypatch, g):
    """One more evaluation point, where the solution does not vanish, makes the
    system infeasible, with unknowns (g = 1) and without (g = 0)."""
    lambdas = floer._lambda_seq
    monkeypatch.setattr(floer, "_solve_cache", {})
    monkeypatch.setattr(floer, "_lambda_seq", lambda h: lambdas(h) + [7])
    with pytest.raises(VerificationError, match=r"^sub-leading system is infeasible"):
        solve_subleading(g)


def test_solver_reports_a_system_that_is_not_unique(monkeypatch):
    """Every unknown listed twice: the system stays solvable, but not uniquely."""
    monomials = floer.canonical_monomials
    monkeypatch.setattr(floer, "_solve_cache", {})
    monkeypatch.setattr(floer, "canonical_monomials", lambda *args: monomials(*args) * 2)
    with pytest.raises(VerificationError, match=r"^sub-leading system is not unique"):
        solve_subleading(1)


def test_check_a9_solves_each_three_point_genus_once(monkeypatch):
    """A9 asks for the g = 0 and g = 1 solutions and builds marked_model(1, 3),
    which solves g = 0, 1 and 2: from cold caches the solver computes each
    (g, 3) once (counted by its one call of w_skeleton)."""
    solved = []
    skeleton = floer.w_skeleton

    def counted(g, n, *rest):
        solved.append((g, n))
        return skeleton(g, n, *rest)

    monkeypatch.setattr(floer, "_solve_cache", {})
    monkeypatch.setattr(floer, "_model_cache", {})
    monkeypatch.setattr(floer, "w_skeleton", counted)
    assert acceptance.check_a9().passed
    assert sorted(solved) == [(0, 3), (1, 3), (2, 3)]


def test_model_primes_are_distinct_primes_below_2_to_60():
    """Each prime of the model build is below 2^60, so a residue is two 30-bit
    CPython digits; primality by deterministic Miller-Rabin, whose bases up to
    37 decide every n < 3.3 * 10^24."""
    def is_prime(n):
        if n < 2:
            return False
        bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
        if n in bases:
            return True
        if any(n % b == 0 for b in bases):
            return False
        d, s = n - 1, 0
        while d % 2 == 0:
            d, s = d // 2, s + 1
        for a in bases:
            x = pow(a, d, n)
            if x in (1, n - 1):
                continue
            for _ in range(s - 1):
                x = x * x % n
                if x == n - 1:
                    break
            else:
                return False
        return True

    assert len(set(floer._PRIMES)) == len(floer._PRIMES) == 4
    assert all(p < 2 ** 60 and is_prime(p) for p in floer._PRIMES)
    # the test itself: a Mersenne prime, a Carmichael number, a strong
    # pseudoprime to the bases 2, 3, 5 and 7, and an odd neighbour of a prime
    assert is_prime(2 ** 61 - 1)
    assert not any(is_prime(n) for n in (561, 3215031751, 2 ** 60 - 95))


def test_three_point_model_dimension():
    m13 = marked_model(1, 3)
    assert m13.dim == sum(expand_rational_fn(ptgn_series(1, 3), 40)) == 10
    # xi_{0,3} = 1, so gamma times its flip orbit is the one generator gamma
    assert marked_model(0, 3).dim == sum(expand_rational_fn(ptgn_series(0, 3), 40)) == 1


def test_three_point_model_at_genus_three():
    """marked_model(3, 3) has the dimension of its series, and (beta^2 - 4)^4 is
    the least power of beta^2 - 4 in J."""
    model = marked_model(3, 3)
    assert model.dim == sum(expand_rational_fn(ptgn_series(3, 3), 80)) == 84
    b = Poly.variable(model.ring, "beta")
    assert model.membership((b * b - 4) ** 4)
    assert not model.membership((b * b - 4) ** 3)


# (g, dim, eigenvalues of omega on V2 with their multiplicities) of the
# five-point models, as first built and certified
FIVE_POINT_MODELS = [(0, 8, {1: 7, -3: 1}), (1, 48, {1: 24, -3: 7, 5: 1})]


@pytest.mark.parametrize("g,dim,spectrum", FIVE_POINT_MODELS, ids=["g0", "g1"])
def test_five_point_model_dimension_and_spectrum(g, dim, spectrum):
    """marked_model(g, 5) has the dimension of its series, and omega on the
    beta = 2 generalized eigenspace V2 has the recorded spectrum, whose top
    eigenvalue (-1)^(g+m-1) (2(g+m) - 1), m = 2, has multiplicity 1."""
    model = marked_model(g, 5)
    assert model.dim == sum(expand_rational_fn(ptgn_series(g, 5), 80)) == dim
    v2 = linalg.generalized_eigenspace(model.operator("beta"), 2)
    (w,) = linalg.restrict([model.operator("omega")], v2)
    assert v2.rows == sum(spectrum.values())
    assert eigen_multiplicities(w, list(spectrum)) == list(spectrum.values())
    assert spectrum[(-1) ** (g + 1) * (2 * (g + 2) - 1)] == 1


@pytest.mark.parametrize("g,n", [(0, 5), (1, 5), (0, 7)])
def test_five_and_seven_point_solver_is_unique(g, n):
    """The sub-leading system at n = 5 and 7 has one solution, whose orbit has
    2^(n-1) members, led by W(g, n, eta, +1) with eta's parity rule."""
    gs = solve_subleading(g, n)
    assert (gs.label, len(gs), gs.meta["n"]) == (f"X_{{{g},{n}}}", 2 ** (n - 1), n)
    m = (n - 1) // 2
    base = w_skeleton(g, n, EtaChoice(() if m % 2 else (1,), n), 1)
    assert gs.meta["f_hat"].leading_order() == base.leading_order()


def test_solver_refuses_fewer_than_three_points_or_even_n():
    for n in (1, 4, -1):
        with pytest.raises(ValueError, match="^n must be an odd integer >= 3$"):
            solve_subleading(0, n)


# sha256 of repr((basis, {variable: (nums, den)})) of each model, as built
# before the mod-p build shared canonical_rep's delta-square fold
MODEL_DIGESTS = {
    (1, "+", None): "a3375b1075dd25548d077abe74416d99eac5b291cae7ca5e6204c96a556ae910",
    (1, "-", None): "245af121eb3b51a5158de3698149acaa2694438ec2c6a7abab424bd1db6edf31",
    (2, "+", None): "5a640b336557427eab5b551c777c1600a52025c24ed9ea1003d1725299b96879",
    (2, "-", None): "43da591a9daf95e527f9facaabd88f640d655f7114b1b1f1cc2226876e8733e5",
    (3, "+", None): "f77a980d3a9059a6b86a106cda8a01063097bd63b05a48f3131d7cffe5486099",
    (3, "-", None): "d6be114de21bd883a7f955de42f9cc58690333caecabd33e610d73919789e486",
    (4, "+", None): "7b368698b436913ac5c27cce4eada76c444c86034590f1c495a2beb7b96434e6",
    (4, "-", None): "be861fdb280d76bd2dd2bdc3ff3b2aa8a54a27a138d40e92059b17f5d2f60112",
    (5, "+", None): "375adabe048459451f4ad01dfd54ce1fdc2a91807eb1766b6e7ad4f19ef0d202",
    (5, "-", None): "64a74c81b9d04ccebf33c6e35fea8357860da110011b7070de0335bb30f0bf8e",
    (0, "+", F(2)): "0e266e72f901225a584418545a2aeeb58a57fe56eea0f73b0637072ba751bf4c",
    (0, "+", F(3, 2)): "0e266e72f901225a584418545a2aeeb58a57fe56eea0f73b0637072ba751bf4c",
    (1, "+", F(2)): "27e42168508f3948caa633f350a8c4a501085f19cc2f0367350afbea6e954328",
    (1, "+", F(3, 2)): "43e68bfc651eaec37db57f074a871770a5fbec7f62bdb86ad401036603851d2a",
    (2, "+", F(2)): "bc6d14d87a58d319d02f8506fab8d4863906877a65ca096a08699f634ba88520",
    (2, "+", F(3, 2)): "06941fced8154c43d5455a4381fe109877b2c888fdd4a79d8ec3ea3064670ea4",
    (3, "+", F(2)): "a6cc5832bf1dd9620ca220def1c396da1bf951db737b2e327e94dfbf18a2ff4e",
    (3, "+", F(3, 2)): "42e49b354ed4bb00e031b42d59bea1e26657c94b0c78681139e7b205e498c7d9",
    "n3_0": "db61c8d4cd0ec40b54b1a86c1b3e19d097cae798bf1726c614a664f3df842831",
    "n3_1": "7e5de735ea460f4d03e8617f58777493bfe9740241d18a5cb778340b9de5b4c0",
    "n3_2": "38808565736583c987c189f4961c158a48877977378df27e3d262509b9663d37",
}


def test_models_match_their_pinned_digests():
    """Every basis and operator of the pinned one-point (both signs, u = 1 and
    u = theta) and three-point models is byte-for-byte the recorded one."""
    def digest(model):
        ops = {v: (model.operator(v).nums, model.operator(v).den)
               for v in model.ring.var_names}
        return hashlib.sha256(repr((model.basis, ops)).encode()).hexdigest()

    got = {key: digest(marked_model(int(key[-1]), 3) if isinstance(key, str)
                       else model_for(*key))
           for key in MODEL_DIGESTS}
    assert got == MODEL_DIGESTS


def test_hilbert_report_json_shape():
    rep = hilbert_compare(1, 1, "ptgn", 6)
    doc = rep.to_json()
    assert doc["match"] is True
    assert doc["degrees"][0] == {"d": 0, "computed": 1, "formula": 1}


def test_kprime_beta_fine_structure():
    """The beta^i slice of the reduced ideal in each isotypic piece has dimension
    min(i,g)+1 and contains the predicted rho-multiples."""
    from instanton.linalg import Matrix, subspace_intersection, rank
    from instanton.quotient import canonical_monomials, rbar_spec, delta_support
    from instanton.relations import rho_proj
    from instanton.floer import _ideal_pieces
    spec = rbar_spec()
    for n, g_vals in ((3, (0, 1)), (5, (0, 1, 2))):
        m = (n - 1) // 2
        rngw = ring(n, coordinate=OMEGA)
        for g in g_vals:
            gens = kprime_gen(g, n)
            for i in range(0, m - g + 1):
                for size in range(0, m - g - i + 1):
                    I = frozenset(range(1, size + 1))
                    d = 2 * (g + m + i)
                    basis, rows = _ideal_pieces(gens, spec)(d)
                    vectors = [[row.get(k, F(0)) for k in range(len(basis))] for row in rows]
                    index = {mono: k for k, mono in enumerate(basis)}
                    # the linear slice beta^i * (isotypic piece I)
                    slice_rows = []
                    for mono in basis:
                        sup = delta_support(rngw, mono)
                        if mono[1] >= i and sup in (I, frozenset(range(1, n + 1)) - I):
                            vec = [F(0)] * len(basis)
                            vec[index[mono]] = F(1)
                            slice_rows.append(vec)
                    ideal_m = Matrix([v for v in vectors if any(v)])
                    from instanton.linalg import rref
                    Rm, piv, _t = rref(ideal_m)
                    ideal_rows = Matrix([Rm.row(r) for r in range(len(piv))])
                    inter = subspace_intersection(ideal_rows, Matrix(slice_rows))
                    assert inter.rows == min(i, g) + 1, (n, g, i, I)
                    # predicted spanning vectors lie in the ideal piece
                    for j in range(min(i, g) + 1):
                        rho = rho_proj(g + m - i - size, n - 2 * i - 2 * size + 2 * j, 0)
                        vec_poly = Poly.zero(rngw)
                        for exps4, cc in rho.terms.items():
                            mono = [exps4[0], exps4[1] + i, 0] + [0] * n
                            for t in I:
                                mono[2 + t] = 1
                            vec_poly = vec_poly + Poly.monomial(rngw, tuple(mono), cc)
                        vec = [F(0)] * len(basis)
                        for e, cc in vec_poly.terms.items():
                            vec[index[e]] = cc
                        stacked = Matrix([ideal_rows.row(r) for r in range(ideal_rows.rows)]
                                         + [vec])
                        assert rank(stacked) == ideal_rows.rows, (n, g, i, I, j)


# Reports of eigen_verify, kept byte for byte: the seed's, for (4, +-),
# (5, +) and (2, -, 3/2) those of the Fraction-entry dense matrices, and for
# (1, +-) and (2, +-) those of the per-eigenvalue stable-power ranks.  The
# dimensions and eigenvalues must not depend on how the eigen algebra is factored.
SEED_EIGEN_REPORTS = {
    (1, "+", None): {"subspace_dim": 1, "total_dim": 2, "tuples": [
        {"alpha": "1", "beta": "2", "delta": ["0"], "gamma": "0", "gen_mult": 1}]},
    (1, "-", None): {"subspace_dim": 1, "total_dim": 2, "tuples": [
        {"alpha": "-1", "beta": "2", "delta": ["0"], "gamma": "0", "gen_mult": 1}]},
    (2, "+", None): {"subspace_dim": 4, "total_dim": 8, "tuples": [
        {"alpha": "1", "beta": "2", "delta": ["0"], "gamma": "0", "gen_mult": 3},
        {"alpha": "-3", "beta": "2", "delta": ["0"], "gamma": "0", "gen_mult": 1}]},
    (2, "-", None): {"subspace_dim": 4, "total_dim": 8, "tuples": [
        {"alpha": "-1", "beta": "2", "delta": ["0"], "gamma": "0", "gen_mult": 3},
        {"alpha": "3", "beta": "2", "delta": ["0"], "gamma": "0", "gen_mult": 1}]},
    (3, "+", None): {"subspace_dim": 10, "total_dim": 20, "tuples": [
        {"alpha": "1", "beta": "2", "delta": ["0"], "gamma": "0", "gen_mult": 6},
        {"alpha": "-3", "beta": "2", "delta": ["0"], "gamma": "0", "gen_mult": 3},
        {"alpha": "5", "beta": "2", "delta": ["0"], "gamma": "0", "gen_mult": 1}]},
    (3, "-", None): {"subspace_dim": 10, "total_dim": 20, "tuples": [
        {"alpha": "-1", "beta": "2", "delta": ["0"], "gamma": "0", "gen_mult": 6},
        {"alpha": "3", "beta": "2", "delta": ["0"], "gamma": "0", "gen_mult": 3},
        {"alpha": "-5", "beta": "2", "delta": ["0"], "gamma": "0", "gen_mult": 1}]},
    (3, "+", F(2)): {"subspace_dim": 1, "total_dim": 20, "tuples": [
        {"alpha": "6", "beta": "2", "delta": ["-3/2"], "gamma": "0", "gen_mult": 1}]},
    (4, "+", None): {"subspace_dim": 20, "total_dim": 40, "tuples": [
        {"alpha": "1", "beta": "2", "delta": ["0"], "gamma": "0", "gen_mult": 10},
        {"alpha": "-3", "beta": "2", "delta": ["0"], "gamma": "0", "gen_mult": 6},
        {"alpha": "5", "beta": "2", "delta": ["0"], "gamma": "0", "gen_mult": 3},
        {"alpha": "-7", "beta": "2", "delta": ["0"], "gamma": "0", "gen_mult": 1}]},
    (4, "-", None): {"subspace_dim": 20, "total_dim": 40, "tuples": [
        {"alpha": "-1", "beta": "2", "delta": ["0"], "gamma": "0", "gen_mult": 10},
        {"alpha": "3", "beta": "2", "delta": ["0"], "gamma": "0", "gen_mult": 6},
        {"alpha": "-5", "beta": "2", "delta": ["0"], "gamma": "0", "gen_mult": 3},
        {"alpha": "7", "beta": "2", "delta": ["0"], "gamma": "0", "gen_mult": 1}]},
    (5, "+", None): {"subspace_dim": 35, "total_dim": 70, "tuples": [
        {"alpha": "1", "beta": "2", "delta": ["0"], "gamma": "0", "gen_mult": 15},
        {"alpha": "-3", "beta": "2", "delta": ["0"], "gamma": "0", "gen_mult": 10},
        {"alpha": "5", "beta": "2", "delta": ["0"], "gamma": "0", "gen_mult": 6},
        {"alpha": "-7", "beta": "2", "delta": ["0"], "gamma": "0", "gen_mult": 3},
        {"alpha": "9", "beta": "2", "delta": ["0"], "gamma": "0", "gen_mult": 1}]},
    (2, "-", F(3, 2)): {"subspace_dim": 1, "total_dim": 8, "tuples": [
        {"alpha": "7/2", "beta": "2", "delta": ["-5/6"], "gamma": "0", "gen_mult": 1}]},
}


@pytest.mark.parametrize("case", sorted(SEED_EIGEN_REPORTS, key=str),
                         ids=lambda c: f"g{c[0]}{c[1]}_theta{c[2] or 1}")
def test_eigen_reports_match_seed(case):
    g, sign, theta = case
    assert eigen_verify(g, sign, theta=theta).to_json() == SEED_EIGEN_REPORTS[case]


def test_model_eigen_algebra_matches_direct_forms():
    """On the g=3 operators, the stable-power eigenspaces, the factor-once
    restriction, the early-exit nilpotency test and the trace-certified
    multiplicities agree with the direct forms."""
    from instanton import linalg
    from instanton.linalg import Matrix, kernel_basis, rank
    from oracles import apply, generalized_eigenspace_dim, is_nilpotent_on, solve
    model = model_for(3, "+")
    D = model.dim
    ops = {var: model.operator(var) for var in (ALPHA, "beta", "gamma", "delta1")}
    v2 = None
    for var, lam in ((ALPHA, 1), (ALPHA, 5), ("beta", 2), ("beta", 7),
                     ("gamma", 0), ("delta1", 0)):
        direct = matrix_power(ops[var] - Matrix.identity(D).scale(lam), D)
        space = linalg.generalized_eigenspace(ops[var], lam)
        assert space == kernel_basis(direct), (var, lam)
        assert generalized_eigenspace_dim(ops[var], lam) == D - rank(direct)
        if (var, lam) == ("beta", 2):
            v2 = space
    assert v2.rows == 10
    bt = v2.transpose()
    restricted = dict(zip(ops, linalg.restrict(list(ops.values()), v2)))
    for var, op in ops.items():
        cols = [solve(bt, apply(op, b)) for b in v2.data]
        oracle = Matrix([[cols[j][i] for j in range(v2.rows)] for i in range(v2.rows)])
        assert restricted[var] == oracle, var
        assert is_nilpotent_on(op, v2) == matrix_power(restricted[var], v2.rows).is_zero()
        assert is_nilpotent_on(op, v2) == (var in ("gamma", "delta1"))
        nilpotent = eigen_multiplicities(restricted[var], [0]) == [v2.rows]
        assert nilpotent == (var in ("gamma", "delta1")), var
    lambdas = [1, -3, 5]
    assert eigen_multiplicities(restricted[ALPHA], lambdas) == \
        [generalized_eigenspace_dim(restricted[ALPHA], lam) for lam in lambdas] == [6, 3, 1]


def test_eigen_verify_factors_v2_once(monkeypatch):
    """At u = theta, the omega, delta1 and gamma restrictions to V2 share one
    rref of V2."""
    model = model_for(3, "+", F(2))
    v2 = linalg.generalized_eigenspace(model.operator("beta"), 2)
    calls = []
    real = linalg.rref

    def counting(M):
        calls.append(M.rows)
        return real(M)
    monkeypatch.setattr(linalg, "rref", counting)
    eigen_verify(3, "+", F(2))
    assert calls == [v2.rows]


def _eigen_report_by_matrices(g, sign):
    """The u = 1 report by the matrix route: V2 as a kernel basis, gamma, delta1
    and alpha restricted to it, and the trace-certified multiplicities of the
    restrictions."""
    model = model_for(g, sign)
    v2 = linalg.generalized_eigenspace(model.operator("beta"), 2)
    c_res, d_res, a_res = linalg.restrict([model.operator(var) for var in ("gamma", "delta1", ALPHA)],
                                          v2)
    assert eigen_multiplicities(c_res, [0]) == eigen_multiplicities(d_res, [0]) == [v2.rows]
    lambdas = [(1 if sign == "+" else -1) * lam for lam in floer._lambda_seq(g)]
    mults = eigen_multiplicities(a_res, lambdas)
    return EigenReport(v2.rows, model.dim, [
        {"alpha": F(lam), "beta": F(2), "gamma": F(0), "delta": [F(0)], "gen_mult": m}
        for lam, m in zip(lambdas, mults)])


@pytest.mark.parametrize("sign", ["+", "-"])
@pytest.mark.parametrize("g", [1, 2, 3, 4, 5])
def test_vector_certificate_matches_the_matrix_route(g, sign):
    rep, oracle = eigen_verify(g, sign), _eigen_report_by_matrices(g, sign)
    assert rep == oracle and rep.to_json() == oracle.to_json()


def test_vector_certificate_forms_only_matrix_vector_products(monkeypatch):
    """At u = 1 the check runs no elimination on the model's operators: every
    product has a one-column right operand."""
    model_for(4, "+")

    def refused(*args):
        raise AssertionError("elimination in the u = 1 eigen check")
    for name in ("rref", "restrict", "kernel_basis"):
        monkeypatch.setattr(linalg, name, refused)
    real, columns = Matrix.__mul__, []

    def recording(self, other):
        columns.append(other.cols)
        return real(self, other)
    monkeypatch.setattr(Matrix, "__mul__", recording)
    assert eigen_verify(4, "+").to_json() == SEED_EIGEN_REPORTS[(4, "+", None)]
    assert columns and set(columns) == {1}


# (operator, shift, message): the operator moved by shift * identity on the
# cached g = 2 model fails the vector identity that the message names; at
# alpha - 2 the traces give the non-negative integers (1, 3) and only the
# annihilation product refuses them
PERTURBED_OPERATORS = [
    ("beta", 1, "beta has an eigenvalue other than 2 and -2"),
    ("gamma", 1, "gamma is not nilpotent on the beta=2 subspace"),
    ("delta1", 1, "delta is not nilpotent on the beta=2 subspace"),
    (ALPHA, -2, "unexpected alpha spectrum on the beta=2 subspace"),
]


@pytest.mark.parametrize("var,shift,message", PERTURBED_OPERATORS,
                         ids=[var for var, _s, _m in PERTURBED_OPERATORS])
def test_each_vector_identity_is_load_bearing(monkeypatch, var, shift, message):
    model = model_for(2, "+")
    op = model.operator(var)
    monkeypatch.setitem(model._ops, var, op + Matrix.identity(model.dim).scale(shift))
    with pytest.raises(AssertionError, match=message):
        eigen_verify(2, "+")


def test_eigen_verify_refuses_a_shifted_spectrum(monkeypatch):
    # at g = 2 the true spectrum is {1, -3}; read as {3, -1} the traces give the
    # integers (1, 3), and only the annihilation product refuses them
    seq = floer._lambda_seq
    monkeypatch.setattr(floer, "_lambda_seq", lambda g: [lam + 2 for lam in seq(g)])
    with pytest.raises(AssertionError, match="unexpected alpha spectrum"):
        eigen_verify(2, "+")


def test_eigen_verify_names_a_missing_eigenvalue(monkeypatch):
    # {1, -3, 5} contains the g = 2 spectrum; 5 is proven to have multiplicity 0
    seq = floer._lambda_seq
    monkeypatch.setattr(floer, "_lambda_seq", lambda g: seq(g + 1))
    with pytest.raises(AssertionError, match="missing alpha eigenvalue 5 on"):
        eigen_verify(2, "+")


@pytest.mark.parametrize("sign", ["+", "-"])
@pytest.mark.parametrize("g", [1, 2, 3, 4])
def test_gen_mults_match_full_space_eigenspaces(g, sign):
    """eigen_verify reads each alpha-multiplicity, the top one included, on the
    beta = 2 subspace V2; the oracle intersects the full-space generalized
    alpha-eigenspace with V2."""
    from instanton import linalg
    model = model_for(g, sign)
    v2 = linalg.generalized_eigenspace(model.operator("beta"), 2)
    rep = eigen_verify(g, sign)
    for t in rep.tuples:
        ga = linalg.generalized_eigenspace(model.operator(ALPHA), t["alpha"])
        assert linalg.subspace_intersection(ga, v2).rows == t["gen_mult"]
    assert rep.tuples[-1]["gen_mult"] == 1


# -- lazy lifts in the model tables against eager lift tracking ---------------------


class _EagerTable:
    """The degree table as first written: a lift Poly is carried through every
    pivot step, including for rows that reduce to zero."""

    def __init__(self, monomials):
        self.monomials = monomials
        self.index = {m: i for i, m in enumerate(monomials)}
        self.pivot_rows = {}  # pivot column -> (row, lift)

    def reduce_vector(self, row, lift):
        row = dict(row)
        residual = {}
        while row:
            p = min(row)
            hit = self.pivot_rows.get(p)
            if hit is None:
                residual[p] = row.pop(p)
                continue
            f = row[p]
            prow, plift = hit
            for j, c in prow.items():
                s = row.get(j, F(0)) - f * c
                if s:
                    row[j] = s
                else:
                    row.pop(j, None)
            lift = lift - plift * f
        return residual, lift

    def insert(self, row, lift):
        row, lift = self.reduce_vector(row, lift)
        if not row:
            return False
        p = min(row)
        inv = F(1) / row[p]
        self.pivot_rows[p] = ({j: c * inv for j, c in row.items()}, lift * inv)
        return True


def _eager_table(model, d):
    from instanton.poly import monomials_of_degree
    table = _EagerTable(monomials_of_degree(model.ring, d))
    for ip, jp in model._pairs:
        gdeg = ip.degree()
        if gdeg > d:
            continue
        for mono in monomials_of_degree(model.ring, d - gdeg):
            mp = Poly.monomial(model.ring, mono)
            row = {table.index[e]: c for e, c in (ip * mp).terms.items()}
            table.insert(row, jp * mp)
    return table


LIFT_CASES = [(g, sign, None) for g in (1, 2, 3) for sign in ("+", "-")] + [(3, "+", F(2))]


def _lift_models():
    for g, sign, theta in LIFT_CASES:
        yield f"g{g}{sign}_theta{theta or 1}", lift_table_model(g, sign, theta)
    yield "n3_g1", lift_table_model_n3(1)


def test_lazy_lifts_match_eager_lifts():
    """Every degree table holds the pivot rows and lift polynomials that eager
    lift tracking builds, and each lift realizes its row and lies in J."""
    for name, model in _lift_models():
        for d, table in model._tables.items():
            eager = _eager_table(model, d)
            assert set(table.pivot_rows) == set(table.lifts) == set(eager.pivot_rows)
            for p, (erow, elift) in eager.pivot_rows.items():
                assert table.pivot_rows[p] == erow, (name, d, p)
                assert table.lifts[p].terms == elift.terms, (name, d, p)
            for p, row in table.pivot_rows.items():
                lift = table.lifts[p]
                realized = Poly(model.ring, {table.monomials[j]: c for j, c in row.items()})
                assert lift.homogeneous_component(d) == realized, (name, d, p)
                assert not any(model.normal_form(lift)), (name, d, p)


def test_reduce_vector_multiplier_contract(rand):
    """row == residual + sum f * pivot_rows[p], and the residual has no pivot."""
    model = lift_table_model(3, "+")
    used = 0
    for d in (6, 8, 10):
        table = model._tables[d]
        width = len(table.monomials)
        for _ in range(20):
            cols = rand.sample(range(width), min(width, rand.randint(1, 6)))
            row = {j: F(rand.randint(-9, 9) or 1, rand.randint(1, 4)) for j in cols}
            residual, multipliers = table.reduce_vector(row)
            assert not set(residual) & set(table.pivot_rows)
            total = dict(residual)
            for p, f in multipliers:
                for j, c in table.pivot_rows[p].items():
                    total[j] = total.get(j, F(0)) + f * c
            assert {j: c for j, c in total.items() if c} == row
            used += len(multipliers)
    assert used


# -- the certified modular model against the lift-table oracle ------------------------


ORACLE_CASES = LIFT_CASES + [(3, "+", F(3, 2)), (3, "+", F(5, 3)), (0, "+", None), "n3_g1"]


def _model_and_oracle(case):
    if case == "n3_g1":
        return marked_model(1, 3), lift_table_model_n3(1)
    return model_for(*case), lift_table_model(*case)


@pytest.mark.parametrize("case", ORACLE_CASES,
                         ids=lambda c: c if isinstance(c, str) else f"g{c[0]}{c[1]}_theta{c[2] or 1}")
def test_modular_model_matches_lift_table_oracle(case, rand):
    """Basis, every operator (alpha too) and the normal forms of the J-generators
    and of seeded random polynomials equal those of the Fraction lift tables."""
    model, oracle = _model_and_oracle(case)
    assert model.basis == oracle.basis
    assert model.basis_index == oracle.basis_index
    for var in model.ring.var_names + (ALPHA,):
        assert model.operator(var) == oracle.operator(var), var
    for name, jp in model.J.gens:
        assert model.normal_form(jp) == oracle.normal_form(jp) == [0] * model.dim, name
    max_exp = 1 if model.ring.n > 1 else 2
    for _ in range(5):
        f = random_poly(model.ring, rand, terms=6, max_exp=max_exp)
        assert model.normal_form(f) == oracle.normal_form(f), f
    f = f.change_coordinates(ALPHA)
    assert model.normal_form(f) == oracle.normal_form(f), f


def test_small_primes_reach_the_oracle_through_crt(monkeypatch):
    """With small primes the first reconstruction fails; Chinese remaindering over
    further primes still gives the oracle's operators.  2 and 3 divide
    denominators of the theta = 3/2 generators and are skipped."""
    primes = (2, 3, 10007, 10009, 10037, 10039, 10061, 10067, 10069, 10079, 10091, 10093)
    monkeypatch.setattr(floer, "_PRIMES", primes)
    reconstructions = []
    rational = floer._rational

    def spy(a, m):
        r = rational(a, m)
        reconstructions.append((m, r))
        return r

    monkeypatch.setattr(floer, "_rational", spy)
    model = QuotientModel(*floer._one_point_ideals(3, "+", F(3, 2)))
    oracle = lift_table_model(3, "+", F(3, 2))
    moduli = sorted({m for m, _r in reconstructions})
    assert moduli[0] == 10007 and len(moduli) > 1
    assert any(r is None for m, r in reconstructions if m == 10007)
    assert model.basis == oracle.basis
    for var in model.ring.var_names + (ALPHA,):
        assert model.operator(var) == oracle.operator(var), var


def test_rational_reconstruction_of_zero_and_at_the_wang_bound(monkeypatch):
    """0 is 0/1, and n/d is reconstructed exactly when |n|, d <= isqrt(m/2),
    70 for m = 10007.  The model build maps a zero residue to 0/1 without a
    call to ``_rational``."""
    m = 10007
    assert floer._wang_bound(m) == 70
    assert floer._rational(0, m) == (0, 1)
    for n, d in [(70, 69), (-70, 69), (1, 70), (3, 1)]:
        assert floer._rational(n * pow(d, -1, m) % m, m) == (n, d)
    for n, d in [(71, 1), (1, 71), (-71, 2), (70, 71)]:
        assert floer._rational(n * pow(d, -1, m) % m, m) is None
    residues = []
    rational = floer._rational
    monkeypatch.setattr(floer, "_rational", lambda a, m: residues.append(a) or rational(a, m))
    model = QuotientModel(*floer._one_point_ideals(2, "+"))
    assert residues and 0 not in residues
    assert len(residues) < len(model.ring.var_names) * model.dim ** 2


def test_certificate_rejects_a_perturbed_operator(rand):
    model = QuotientModel(*floer._one_point_ideals(2, "+"))
    ops = {var: model.operator(var) for var in model.ring.var_names}
    for _ in range(8):
        var = rand.choice(model.ring.var_names)
        i, j = rand.randrange(model.dim), rand.randrange(model.dim)
        data = [list(row) for row in ops[var].data]
        data[i][j] += F(rand.choice((1, -1)), rand.randint(1, 3))
        assert not model._certify({**ops, var: Matrix(data)}), (var, i, j)
    assert model._certify(ops)


def test_certificate_needs_the_basis_condition():
    """Scalar operators at a common zero of J commute and kill every J-generator,
    but b(M) e_1 = e_b fails for b = delta."""
    theta = F(2)
    model = QuotientModel(*floer._one_point_ideals(1, "+", theta))
    point = {"omega": (theta + 1 / theta) / 2, "delta1": 1 / theta - theta,
             "beta": F(2), "gamma": F(0)}
    assert all(not p.evaluate(point) for _name, p in model.J.gens)
    ops = {var: Matrix.identity(model.dim).scale(point[var]) for var in model.ring.var_names}
    assert model._commute() and model.dim == 2
    assert not model._certify(ops)


def test_certificate_needs_the_jgenerator_condition():
    """The (3,+) and (3,-) models share I, so the (3,+) operators commute and
    meet b(M) e_1 = e_b in the (3,-) basis, but they do not kill J^-."""
    plus, minus = model_for(3, "+"), QuotientModel(*floer._one_point_ideals(3, "-"))
    assert plus.basis == minus.basis
    assert not minus._certify({var: plus.operator(var) for var in plus.ring.var_names})


def test_model_rejects_a_generator_that_does_not_deform(monkeypatch):
    """omega - 3 joins J but leads no I-generator: the check mod the first prime
    raises at once."""
    J, I, formula = floer._one_point_ideals(2, "+")
    w = Poly.variable(J.ambient, "omega")
    J = GeneratorSet(J.label, J.ambient, J.gens + [("omega-3", w - 3)], meta=J.meta)
    built = []

    class Counting(floer._ModularTables):
        def __init__(self, *args):
            built.append(args[-1])
            super().__init__(*args)

    monkeypatch.setattr(floer, "_ModularTables", Counting)
    with pytest.raises(VerificationError, match="J-generator omega-3 has nonzero normal form"):
        QuotientModel(J, I, formula)
    assert built == [floer._PRIMES[0]]


def test_a_generator_past_the_degree_window_leaves_the_model_unchanged():
    """r_1*omega^12 lies in J and has degree 26, far past the top basis degree
    of the (1,+) model: the window runs on through its degree, those degrees
    are full, and basis and operators are those of the model without it."""
    J, I, formula = floer._one_point_ideals(1, "+")
    r1 = dict(J.gens)["r_1"]
    w = Poly.variable(J.ambient, "omega")
    J = GeneratorSet(J.label, J.ambient, J.gens + [("r_1*omega^12", r1 * w ** 12)], meta=J.meta)
    model, plain = QuotientModel(J, I, formula), model_for(1, "+")
    assert model.dim == 2 and model.basis == plain.basis
    for var in model.ring.var_names:
        assert model.operator(var) == plain.operator(var), var


def test_cached_model_keeps_no_build_tables():
    model = model_for(3, "+")
    assert set(vars(model)) == {"J", "I", "ring", "basis", "basis_index",
                                "_ops", "_columns", "_memo"}
    assert model._commute()


def _degree_four_model_ideals():
    """J = I: omega^2 + omega*delta, omega^2 + 8 omega*delta + beta,
    delta^2 + beta and every monomial of degree 6.  On the folded columns
    omega^2, omega*delta, beta, degree 4 leads on omega^2 and omega*delta over
    Q, on omega^2 and beta mod 7; omega*delta = -beta/7."""
    from instanton.poly import monomials_of_degree
    rng = ring(1, coordinate=OMEGA)
    w, b, d = (Poly.variable(rng, v) for v in ("omega", "beta", "delta1"))
    gens = [("f1", w * w + w * d), ("f2", w * w + w * d * 8 + b), ("delta1^2+beta", d * d + b)]
    gens += [(f"m{k}", Poly.monomial(rng, m)) for k, m in enumerate(monomials_of_degree(rng, 6))]
    return (GeneratorSet("J", rng, gens), GeneratorSet("I", rng, gens),
            [(w * d, [0, 0, 0, F(-1, 7)]), (w * w, [0, 0, 0, F(1, 7)]),
             (d * d, [0, 0, 0, -1]), (d + b, [0, 0, 1, 1])])


def _degree_two_model_ideals():
    """Mod 7, omega + delta and omega + 8 delta lead on one column, over Q on two;
    R/J = Q with omega = 8 and delta = -1, so delta^2 + beta - c holds c = 1,
    which 7 does not divide."""
    rng = ring(1, coordinate=OMEGA)
    w, b, c, d = (Poly.variable(rng, v) for v in ("omega", "beta", "gamma", "delta1"))
    leading = [("f1", w + d), ("f2", w + d * 8), ("beta", b), ("gamma", c),
               ("delta1^2+beta", d * d + b)]
    J = [("f1-7", w + d - 7)] + leading[1:4] + [("delta1^2+beta-1", d * d + b - 1)]
    return (GeneratorSet("J", rng, J), GeneratorSet("I", rng, leading),
            [(w, [8]), (d, [-1]), (w * w + d, [63])])


@pytest.mark.parametrize("ideals,formula,primes",
                         [(_degree_two_model_ideals, [1], [10007]),
                          (_degree_four_model_ideals, [1, 0, 2, 0, 1], [7, 10007])],
                         ids=["rank_drops", "pivot_moves"])
def test_a_prime_that_moves_a_pivot_is_skipped(monkeypatch, ideals, formula, primes):
    """7 changes the leading columns of I.  Where it loses rank, a degree has
    more basis monomials than the formula, so 7 is skipped before its
    operators are built; where a pivot only moves, its operators fail the
    certificate.  10007 gives the model."""
    J, I, values = ideals()
    monkeypatch.setattr(floer, "_PRIMES", (7, 10007))
    reached = []

    class Recording(floer._ModularTables):
        def columns(self, k, basis):
            reached.append(self.p)
            return super().columns(k, basis)

    monkeypatch.setattr(floer, "_ModularTables", Recording)
    model = QuotientModel(J, I, RationalFn(formula))
    assert list(dict.fromkeys(reached)) == primes
    for f, coords in values:
        assert model.normal_form(f) == coords, f


def test_a_prime_that_moves_a_pivot_gives_no_model_alone(monkeypatch):
    """Mod 7 the basis takes omega*delta in degree 4 where the standard basis
    over Q takes beta; with 7 as the only prime the build raises instead of
    returning a model in that basis."""
    J, I, _values = _degree_four_model_ideals()
    monkeypatch.setattr(floer, "_PRIMES", (7,))
    with pytest.raises(VerificationError, match="no prime of the modular build"):
        QuotientModel(J, I, RationalFn([1, 0, 2, 0, 1]))


def test_certificate_needs_the_leading_condition():
    """1, omega, delta, omega*delta is a basis of R/J too, but not the
    standard one: 7 omega*delta + beta lies in I and leads on omega*delta.
    The true operators in that basis meet (a)-(c) and fail (d)."""
    J, I, _values = _degree_four_model_ideals()
    model = QuotientModel(J, I, RationalFn([1, 0, 2, 0, 1]))
    assert model.basis[3] == (4, (0, 1, 0, 0))  # beta
    to_standard = Matrix([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, F(-1, 7)]])
    from_standard = Matrix([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, -7]])
    ops = {var: from_standard * model.operator(var) * to_standard for var in model.ring.var_names}
    model.basis = model.basis[:3] + [(4, (1, 0, 0, 1))]
    model.basis_index = {bm: i for i, bm in enumerate(model.basis)}
    assert not model._certify(ops)
    assert model._commute()
    assert all(model._vector(mono) == ({i: 1}, 1) for i, (_d, mono) in enumerate(model.basis))
    assert not any(any(model.normal_form(jp)) for _name, jp in J.gens)
    assert not model._leads()


def test_the_model_build_runs_no_exact_elimination(monkeypatch):
    def boom(*_args):
        raise AssertionError("exact elimination in the model build")

    monkeypatch.setattr(linalg, "_echelon", boom)
    assert QuotientModel(*floer._one_point_ideals(3, "+")).dim == 20


EXACT_BASIS_CASES = [(4, "+", None), (4, "-", None), (5, "+", None), (3, "+", F(2)),
                     (2, "-", F(3, 2)), "n3_g0", "n3_g1", "n3_g2", "n5_g0"]


@pytest.mark.parametrize("case", EXACT_BASIS_CASES,
                         ids=lambda c: c if isinstance(c, str) else f"g{c[0]}{c[1]}_theta{c[2] or 1}")
def test_model_basis_is_the_exact_standard_basis(case):
    """The basis decided mod p is the one the exact elimination over Q takes."""
    if isinstance(case, str):
        n, g = int(case[1]), int(case[-1])
        model, ideals = marked_model(g, n), floer._marked_ideals(g, n)
    else:
        model, ideals = model_for(*case), floer._one_point_ideals(*case)
    assert model.basis == exact_basis(*ideals)


def _check_tables_against(monkeypatch, *oracles):
    """Make every ``_ModularTables`` build check itself against each oracle
    (built from the same arguments): the same exception type and message, or
    the same basis and normal forms (operator columns and J-generators), and
    for the heap oracle the same stored rows, each the head and the tail its
    lift and multipliers imply.  Returns the outcome of each build: None or
    the type of the exception it raised."""
    outcomes = []

    class Checked(floer._ModularTables):
        def __init__(self, ring, pairs, want, p):
            errors = (VerificationError, floer._UnluckyPrime)
            self.oracles, expected = [], []
            for oracle in oracles:
                try:
                    self.oracles.append(oracle(ring, pairs, want, p))
                    expected.append(None)
                except errors as exc:
                    expected.append(exc)
            try:
                super().__init__(ring, pairs, want, p)
                got = None
            except errors as exc:
                got = exc
            for exc in expected:
                assert (type(got), str(got)) == (type(exc), str(exc))
            outcomes.append(type(got) if got else None)
            if got:
                raise got
            for tables in self.oracles:
                assert self.basis == tables.basis
                if isinstance(tables, HeapModularTables):
                    rows = {}
                    for lo, heads, lifts in self.blocks:
                        tails = {}
                        for q, lift, multipliers in lifts:  # tail_q = L_q - U_q . tails
                            tail = dict(lift)
                            replay(tail, multipliers, tails)
                            tails[q] = [(j, c % p) for j, c in tail.items() if c % p]
                            rows[lo + q] = dict([(lo + j, c) for j, c in heads[q]] + tails[q])
                    assert rows == tables.rows

        def normal_form(self, terms):
            out = super().normal_form(terms)
            assert all(out == tables.normal_form(terms) for tables in self.oracles)
            return out

    monkeypatch.setattr(floer, "_ModularTables", Checked)
    return outcomes


HEAP_ORACLE_CASES = EXACT_BASIS_CASES + ["rank_drops", "pivot_moves"]


def _oracle_case_ideals(monkeypatch, case):
    """(J, I, formula) of an oracle case; the custom ideals run under the
    primes 7 and 10007."""
    if case in ("rank_drops", "pivot_moves"):
        J, I, _values = {"rank_drops": _degree_two_model_ideals,
                         "pivot_moves": _degree_four_model_ideals}[case]()
        monkeypatch.setattr(floer, "_PRIMES", (7, 10007))
        return J, I, RationalFn([1] if case == "rank_drops" else [1, 0, 2, 0, 1])
    if isinstance(case, str):
        return floer._marked_ideals(int(case[-1]), int(case[1]))
    return floer._one_point_ideals(*case)


def _case_id(case):
    return case if isinstance(case, str) else f"g{case[0]}{case[1]}_theta{case[2] or 1}"


@pytest.mark.parametrize("case", HEAP_ORACLE_CASES, ids=_case_id)
def test_modular_tables_match_the_heap_oracle(monkeypatch, case):
    """The dense decision stores the rows, and so decides the basis and the
    operator columns, that reducing every row through the heap did, J-row
    after I-row, on the same folds; the custom ideals run under the primes 7
    and 10007."""
    ideals = _oracle_case_ideals(monkeypatch, case)
    outcomes = _check_tables_against(monkeypatch, HeapModularTables)
    assert QuotientModel(*ideals).dim
    assert outcomes[-1] is None
    if case == "rank_drops":
        assert outcomes[0] is floer._UnluckyPrime


@pytest.mark.parametrize("case", HEAP_ORACLE_CASES, ids=_case_id)
def test_modular_tables_match_the_unfolded_oracle(monkeypatch, case):
    """Folding delta_i^2 into c_i - beta changes the stored rows but not what
    they decide: at every prime the folded tables take the basis, operator
    columns and J-generator normal forms of the tables that span every
    monomial and eliminate the rows of delta_i^2 + beta, or raise the same
    exception with the same message."""
    ideals = _oracle_case_ideals(monkeypatch, case)
    outcomes = _check_tables_against(monkeypatch, UnfoldedModularTables)
    assert QuotientModel(*ideals).dim
    assert outcomes[-1] is None


@pytest.mark.parametrize("ideals", [lambda: floer._one_point_ideals(3, "+"),
                                    lambda: floer._one_point_ideals(2, "-", F(3, 2)),
                                    lambda: floer._marked_ideals(1, 3)],
                         ids=["n1_g3", "n1_g2_theta3/2", "n3_g1"])
def test_standard_tables_fold_every_delta(monkeypatch, ideals):
    """The standard ideals hold delta_i^2 + beta - c for every i, so their
    tables fold every delta_i and no column has a delta exponent of 2 or
    more: a build whose columns kept delta_i^2 would fail here, not only run
    slower.  A three-point build may first build the solver's
    one-point tables, so each tables' deltas are read off its own ring."""
    built = []

    class Recording(floer._ModularTables):
        def __init__(self, ring, *args):
            super().__init__(ring, *args)
            built.append((ring, self))

    monkeypatch.setattr(floer, "_ModularTables", Recording)
    model = QuotientModel(*ideals())
    assert built and model.dim
    for ring_, tables in built:
        assert all(e[i] < 2 for e in tables.column for i in range(3, 3 + ring_.n))


def _model_pairs(monkeypatch, ideals):
    """The ring and the (I-generator, J-generator) pairs that the first
    ``_ModularTables`` of the build of ``ideals`` is given."""
    given = []

    class Recording(floer._ModularTables):
        def __init__(self, ring, pairs, want, p):
            given.append((ring, list(pairs)))
            super().__init__(ring, pairs, want, p)

    monkeypatch.setattr(floer, "_ModularTables", Recording)
    QuotientModel(*ideals)
    return given[0]


@pytest.mark.parametrize("ideals,c", [(lambda: floer._one_point_ideals(3, "+"), 2),
                                      (lambda: floer._one_point_ideals(2, "-"), 2),
                                      (lambda: floer._one_point_ideals(2, "+", F(3, 2)),
                                       F(9, 4) + F(4, 9)),
                                      (lambda: floer._marked_ideals(1, 3), 2)],
                         ids=["n1_g3", "n1_g2_minus", "n1_g2_theta3/2", "n3_g1"])
def test_folds_take_the_one_c_of_every_delta(monkeypatch, ideals, c):
    """The standard pairs hold delta_i^2 + beta - c for every i with c = 2 at
    u = 1 and c = theta^2 + theta^-2 at u = theta: ``_folds`` returns that c
    and every other pair, in order."""
    rng, pairs = _model_pairs(monkeypatch, ideals())
    got, rest = floer._folds(rng, pairs)
    assert got == c
    assert len(rest) == len(pairs) - rng.n
    assert [pair for pair in pairs if pair not in rest] == [
        (ip, ip - c) for ip in (Poly.variable(rng, f"delta{i}") ** 2 + Poly.variable(rng, "beta")
                                for i in range(1, rng.n + 1))]


def test_folds_need_every_delta_and_one_c(monkeypatch):
    """A pair list that lacks one delta_i's pair, or whose pairs hold two
    different c, raises ValueError, and so does a model whose J does: one
    whose delta2^2 + beta - 2 gains a term omega, or whose delta3^2 + beta - 2
    becomes delta3^2 + beta - 3."""
    J, I, formula = floer._marked_ideals(1, 3)
    rng, pairs = _model_pairs(monkeypatch, (J, I, formula))
    beta = Poly.variable(rng, "beta")
    squares = [Poly.variable(rng, f"delta{i}") ** 2 + beta for i in (1, 2, 3)]
    assert floer._folds(rng, pairs)[0] == 2
    lacking = [pair for pair in pairs if pair[0] != squares[1]]
    assert len(lacking) == len(pairs) - 1
    lacks_delta2 = "J pairs no delta2\\^2\\+beta-c with I's delta2\\^2\\+beta"
    with pytest.raises(ValueError, match=lacks_delta2):
        floer._folds(rng, lacking)
    two_cs = [(ip, ip - 3) if ip == squares[2] else (ip, jp) for ip, jp in pairs]
    with pytest.raises(ValueError, match="the pairs delta_i\\^2\\+beta-c hold different c: 2, 3$"):
        floer._folds(rng, two_cs)

    def with_generator(name, p):
        gens = [(n, p if n == name else q) for n, q in J.gens]
        return GeneratorSet(J.label, J.ambient, gens, meta=J.meta)

    omega = Poly.variable(rng, "omega")
    for bad, match in [(with_generator("delta2^2+beta-2", squares[1] - 2 + omega), lacks_delta2),
                       (with_generator("delta3^2+beta-2", squares[2] - 3), "hold different c")]:
        with pytest.raises(ValueError, match=match):
            QuotientModel(bad, I, formula)


@pytest.mark.parametrize("degree,change,message", [
    (4, -1, "computed 2, formula 1"), (4, 1, "computed 2, formula 3"),
    (8, 1, "computed 1, formula 2")], ids=["4_minus_1", "4_plus_1", "8_plus_1"])
def test_model_rejects_a_wrong_formula(monkeypatch, degree, change, message):
    """One coefficient of the (2,+) series changed: fewer basis monomials than
    the formula fails at once, more fails once every prime agrees.  The heap
    and unfolded oracles raise the same exception with the same message at
    every prime."""
    J, I, formula = floer._one_point_ideals(2, "+")
    coeffs = expand_rational_fn(formula, 40)
    assert coeffs[degree] and not any(coeffs[9:])  # the series stops at degree 8
    coeffs[degree] += change
    outcomes = _check_tables_against(monkeypatch, HeapModularTables, UnfoldedModularTables)
    with pytest.raises(VerificationError,
                       match=f"graded quotient dimension mismatch at degree {degree}: {message}$"):
        QuotientModel(J, I, RationalFn(coeffs))
    expected = [VerificationError] if change > 0 else [floer._UnluckyPrime] * len(floer._PRIMES)
    assert outcomes == expected
