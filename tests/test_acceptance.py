"""Acceptance suite: every criterion at its stated (exact) tolerance.

Each test prints its one-line verdict so `pytest -s tests/test_acceptance.py`
mirrors `floer verify --suite all`.  All checks are exact rational arithmetic;
there are no tolerances to tune.
"""

import json
import re
from fractions import Fraction as F

import pytest

from oracles import row_rank

from instanton import acceptance, floer, linalg
from instanton.cli import Cache
from instanton.floer import _ideal_pieces
from instanton.poly import OMEGA, Poly, ring
from instanton.quotient import mod_beta_spec


def _run(check, *args, **kwargs):
    result = check(*args, **kwargs)
    print(result.line())
    assert result.passed, result.detail
    return result


def test_a1_quotient_dimensions():
    _run(acceptance.check_a1)


def test_a2_eigen_spectra_both_signs():
    _run(acceptance.check_a2)


def test_a1_a2_run_the_genus_asked_for():
    assert acceptance.check_a1().detail == "quotient dims [0, 2, 8, 20] match series values for g<=3"
    a1 = _run(acceptance.check_a1, 4)
    assert a1.detail == "quotient dims [0, 2, 8, 20, 40] match series values for g<=4"
    a2 = _run(acceptance.check_a2, 4)
    assert a2.detail.endswith(" g=3-:V2=10 g=4+:V2=20 g=4-:V2=20")


def test_a3_hilbert_series_of_quotients():
    _run(acceptance.check_a3)


def test_a4_k_series():
    _run(acceptance.check_a4)


def test_a5_rho_functional_identity():
    a5 = _run(acceptance.check_a5)
    assert a5.detail == ("functional identity holds with sign (-1)^s over 60 cases "
                         "(22 genuine odd-s sign flips); beta=0 closed form matches "
                         "in the A6 branch")


def test_a6_rho_convention_pinning(tmp_path):
    first = _run(acceptance.check_a6, cache=Cache(str(tmp_path)))
    assert first.detail == "rho convention branch: negate_omega (recorded)"
    # the recorded branch is re-asserted on a second run
    again = _run(acceptance.check_a6, cache=Cache(str(tmp_path)))
    assert again.detail == "rho convention branch: negate_omega"


def test_a5_a6_call_rho_through_the_names_acceptance_holds(monkeypatch):
    """A5 and A6 reach relations.rho_proj and relations.rho_series through the
    names ``acceptance`` holds, one call per (k, n, s) and (k, r) visited, so a
    wrapper bound to those names (as the benchmark's layer trace binds one)
    sees every call."""
    from instanton import relations
    assert acceptance.rho_proj is relations.rho_proj
    assert acceptance.rho_series is relations.rho_series
    calls = []
    monkeypatch.setattr(acceptance, "rho_proj",
                        lambda *a: calls.append(("proj",) + a) or relations.rho_proj(*a))
    monkeypatch.setattr(acceptance, "rho_series",
                        lambda *a: calls.append(("series",) + a) or relations.rho_series(*a))
    _run(acceptance.check_a5)
    assert len(calls) == 156 and len(set(calls)) == 68
    calls.clear()
    _run(acceptance.check_a6)
    assert sorted(calls) == sorted((kind, k, r) + ((0,) if kind == "proj" else ())
                                   for kind in ("proj", "series")
                                   for r in (1, 3, 5) for k in range(7))


def test_a6_fails_on_a_contradicting_record(tmp_path):
    cache = Cache(str(tmp_path))
    cache.put("rho_convention", {"branch": "identity"})
    result = acceptance.check_a6(cache=cache)
    assert not result.passed
    assert result.detail == "branch negate_omega contradicts recorded identity"


def test_a6_without_a_cache_records_nothing(tmp_path):
    result = _run(acceptance.check_a6)
    assert result.detail == "rho convention branch: negate_omega"


def test_a6_forms_no_product_with_a_zero_operand(monkeypatch):
    """The series products of A6 skip zero parts instead of multiplying them."""
    mul = Poly.__mul__
    products = []

    def counted(p, q):
        if isinstance(q, Poly):
            products.append(not (p.terms and q.terms))
        return mul(p, q)

    monkeypatch.setattr(Poly, "__mul__", counted)
    assert acceptance.check_a6().passed
    assert products and not any(products)


def test_a6_leaves_another_writers_temp_file_alone(tmp_path):
    stray = tmp_path / "rho_convention.json.tmp"
    stray.write_text("half-written by another process")
    result = _run(acceptance.check_a6, cache=Cache(str(tmp_path)))
    assert result.detail == "rho convention branch: negate_omega (recorded)"
    assert stray.read_text() == "half-written by another process"
    recorded = json.loads((tmp_path / "rho_convention.json").read_text())
    assert recorded["key"] == "rho_convention"
    assert recorded["payload"] == {"branch": "negate_omega"}
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "rho_convention.json", "rho_convention.json.tmp"]


def test_a7_subleading_structure():
    _run(acceptance.check_a7)


def test_a8_gamma_power_membership():
    _run(acceptance.check_a8)


def test_a9_subleading_solver():
    _run(acceptance.check_a9)


def test_a10_local_coefficients():
    _run(acceptance.check_a10)


@pytest.mark.parametrize("g_max, genera", [(0, []), (1, ["1", "1"]), (6, ["1", "1", "2", "2"])])
def test_a10_runs_the_theta_cases_up_to_g_max(g_max, genera):
    detail = _run(acceptance.check_a10, g_max).detail
    assert re.findall(r"g=(\d+),theta=", detail) == genera
    assert detail.endswith("operators: none for g<=0") == (g_max == 0)


def test_a10_fails_when_the_local_tuple_misses_a_generator(monkeypatch):
    """eigen_verify evaluates the generators at the tuple: with a shifted omega
    value it no longer annihilates r_1, and A10 reports the failed operator
    check."""
    point = floer.local_eigen_point

    def shifted(g, sign, theta):
        tup = point(g, sign, theta)
        return dict(tup, omega=tup["omega"] + 1)

    monkeypatch.setattr(floer, "local_eigen_point", shifted)
    result = acceptance.check_a10(1)
    assert not result.passed
    assert result.detail == ("g=1,theta=2:operator-check FAILED "
                             "(local eigen tuple does not annihilate r_1)")


def test_a11_decomposition_identity():
    _run(acceptance.check_a11)


def test_a12_mod_beta_lemmas():
    _run(acceptance.check_a12)


@pytest.mark.parametrize("n", [1, 3, 5, 7])
def test_a12_alpha_prime_is_omega_minus_half_the_delta_sum(n):
    rng = ring(n, coordinate=OMEGA)
    half_sum = sum((Poly.variable(rng, f"delta{i}") for i in range(1, n + 1)),
                   Poly.zero(rng)) * F(1, 2)
    assert acceptance._a12_flips(n, 1).gens[0][1] == Poly.variable(rng, OMEGA) - half_sum


def test_a12_n3_stacks_pinned():
    """A12's n = 3 stacks: shapes, ranks, and the integer kernel against RREF."""
    shapes = {}
    for s in (1, 2):
        piece = _ideal_pieces(acceptance._a12_flips(3, s), mod_beta_spec())
        (basis, flip_rows), (tbasis, prod_rows) = piece(2 * s), piece(2 * s + 2)
        flip_rows, prod_rows = list(flip_rows), list(prod_rows)
        cols, tcols = len(basis), len(tbasis)
        for rows, c in ((flip_rows, cols), (prod_rows, tcols)):
            dense = linalg.Matrix([[row.get(j, F(0)) for j in range(c)] for row in rows], c)
            assert row_rank(rows, c) == len(linalg.rref(dense)[1])
        shapes[s] = (len(flip_rows), cols, row_rank(flip_rows, cols),
                     len(prod_rows), tcols, row_rank(prod_rows, tcols))
    assert shapes == {1: (4, 4, 4, 16, 7, 7), 2: (4, 7, 4, 16, 8, 8)}
    # alpha' = omega - (delta1 + delta2 + delta3)/2, unflipped, scaled to integers
    _basis, flip_rows = _ideal_pieces(acceptance._a12_flips(3, 1), mod_beta_spec())(2)
    assert next(flip_rows) == {0: 2, 1: -1, 2: -1, 3: -1}


@pytest.mark.parametrize("check, g_max, expected", [
    ("check_a8", 5, "; g=4:3 cofactors; g=5:3 cofactors"),
    ("check_a10", 7, "u=1 specialization for g<=7; "),
    ("check_a11", 4, " to degree 40 for 15 pairs"),
])
def test_a8_a10_a11_run_the_genus_asked_for(check, g_max, expected):
    assert expected in _run(getattr(acceptance, check), g_max).detail


def test_a13_binomial_determinants():
    _run(acceptance.check_a13)


def test_suite_runner_collects_all(tmp_path):
    lines = []
    results = acceptance.run_suite("all", cache=Cache(str(tmp_path)),
                                   emit=lines.append)
    assert len(results) == 13
    assert all(r.passed for r in results)
    assert all(line.startswith("[A") for line in lines)


@pytest.mark.parametrize("g_max, n_max, criterion", [
    (0, None, "A2"), (-1, None, "A1"), (None, 0, "A3"), (2, -1, "A3")])
def test_suite_refuses_limits_that_leave_a_criterion_no_case(monkeypatch, g_max, n_max,
                                                             criterion):
    """The first criterion in suite order with nothing to check within the
    limits is named, before any check runs."""
    ran = []
    for name in acceptance._CHECKS:
        monkeypatch.setitem(acceptance._CHECKS, name, lambda name=name, **_kw: ran.append(name))
    with pytest.raises(ValueError, match=f"^{criterion} has no case within "):
        acceptance.run_suite("all", g_max=g_max, n_max=n_max, emit=ran.append)
    assert ran == []


@pytest.mark.parametrize("g_max, n_max", [(1, 1), (1, 3), (1, None), (None, 1)])
def test_suite_runs_every_criterion_that_has_a_case(monkeypatch, g_max, n_max):
    """Limits that leave each criterion at least one case run the whole suite."""
    ran = []
    for name in acceptance._CHECKS:
        monkeypatch.setitem(acceptance._CHECKS, name,
                            lambda name=name, **_kw: acceptance.CheckResult(name, True, ""))
    results = acceptance.run_suite("all", g_max=g_max, n_max=n_max, emit=ran.append)
    assert [r.criterion for r in results] == [f"A{i}" for i in range(1, 14)]
