import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import eigvalsh_tridiagonal

from gapforge import appendix
from gapforge.appendix import (
    BracketInversionError,
    family_tridiagonal,
    kappa_tilde_1_bracket,
    monotonicity_report,
    n_zero,
    nu_n,
    nu_quadrature,
    p_n,
    p_quadrature,
    q_cert,
    q_n,
    q_quadrature,
    tridiagonal_sup,
    verify_certificates,
    verify_conditional_eigenrelation,
    verify_prop_a,
    verify_prop_b,
)
from gapforge.galerkin import kappa_tilde


def test_nu_exact_values():
    assert nu_n(0, 1.0) == 1.0
    for g in (0.5, 1.0, 2.5):
        assert abs(nu_n(1, g) + 0.5) < 1e-12  # nu_1 = -1/2 for every gamma
    assert abs(nu_n(2, 1.0) - (2.0 / (2.0 * 3.0))) < 1e-12  # Gamma(2)Gamma(3)/Gamma(1)Gamma(4)


def test_p_at_two_thirds_is_half():
    for n in range(1, 30):
        assert abs(p_n(n, 2.0 / 3.0) - 0.5) < 1e-12


def test_q_limit_one_quarter():
    for g in (0.5, 1.0, 3.0):
        assert abs(abs(q_n(10_000, g)) - 0.25) < 1e-3
        # the certificate surrogate decays instead
        assert abs(q_cert(10_000, g)) < 0.01


def test_closed_forms_vs_quadrature():
    for g in (0.5, 1.0, 1.5):
        for n in list(range(1, 11)) + [25, 40]:
            assert abs(nu_n(n, g) - nu_quadrature(n, g)) < 1e-8
            assert abs(p_n(n, g) - p_quadrature(n, g)) < 1e-8
            assert abs(q_n(n, g) - q_quadrature(n, g)) < 1e-8


def test_conditional_eigenrelation():
    for g in (0.5, 1.0, 1.5):
        for n in (1, 2, 5):
            assert verify_conditional_eigenrelation(g, n) < 1e-8


@pytest.mark.parametrize("gamma", [0.5, 1.0, 2.0])
@pytest.mark.parametrize("degree", [2, 4, 6])
def test_exact_family_matches_galerkin(gamma, degree):
    """The head supremum of the exact-coefficient tridiagonal families equals
    the polynomial variational value at the matching truncation degree."""
    da, oa = family_tridiagonal("A", gamma, degree, exact=True)
    db, ob = family_tridiagonal("B", gamma, degree, exact=True)
    def lambda_max(diag, off):
        # dense reference, independent of the tridiagonal solver under test
        if not diag.size:
            return -math.inf
        return np.linalg.eigvalsh(np.diag(diag) + np.diag(off, 1) + np.diag(off, -1))[-1]

    s = max(lambda_max(da, oa), lambda_max(db, ob))
    want = kappa_tilde(1.0, gamma, degree)
    assert abs((2.0 - s) / 3.0 - want) < 1e-7


def test_certificate_sups_below_one():
    for g in (1.0 / 3.0, 1.0, 3.0):
        rep = verify_certificates(g, n_max=200)
        assert rep["ok"]
        assert rep["sup_a"] < 1.0 and rep["sup_b"] < 1.0
        assert abs(rep["limit_a"] - 0.5) < 1e-2
        assert abs(rep["limit_b"] - 0.5) < 1e-2


def test_prop_reports_all_pass():
    for g in (0.4, 1.0, 2.0):
        for rec in verify_prop_a(g, n_max=100) + verify_prop_b(g, n_max=100):
            assert rec["pass"], rec


def test_monotonicity_zero_violations():
    for rec in monotonicity_report((0.2, 1.0 / 3.0, 0.5, 2.0 / 3.0, 1.0, 2.0, 3.0), n_max=50):
        assert rec["violations"] == 0, rec


def test_n_zero_finite():
    for g in (0.5, 1.0, 2.0):
        assert 1 < n_zero(g) < 10_000


def test_certificate_sup_bracket_ordered():
    b = tridiagonal_sup("B", 1.0, n_max=150)
    assert b.lower <= b.upper
    assert b.upper < 1.0
    assert b.width >= 0


@pytest.mark.parametrize("family, n_max", [("A", 2), ("B", 1)])
@pytest.mark.parametrize("gamma", [0.2, 0.5, 1.0, 3.0])
def test_one_row_head_couples_to_the_next_row_of_the_family(family, n_max, gamma):
    # with a one-row head the certified upper is the minimum over tau of
    # max(d + e tau, tail + e / tau), e coupling row n_max to row n_max + 1
    diag, off = family_tridiagonal(family, gamma, n_max + 1)
    sup = tridiagonal_sup(family, gamma, n_max)
    want = min(max(diag[0] + off[-1] * tau, sup.tail_bound + off[-1] / tau)
               for tau in np.geomspace(1e-3, 1e3, 121))
    assert sup.upper == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize("family, n_max", [("A", 1), ("B", 0), ("C", 5)])
def test_sup_needs_a_head_row_and_a_known_family(family, n_max):
    with pytest.raises(ValueError, match="head row|family"):
        tridiagonal_sup(family, 1.0, n_max)


# the kappa~ bracket gammas of the appendix suite, and a sweep over gamma from
# 0.2 to 5 and n_max from the one-row head (2 in family A, 1 in B) up to 300
SUITE_GAMMAS = (0.4, 2.0 / 3.0, 1.0, 1.5, 2.0, 3.0)
SWEEP_GAMMAS = (0.2, 1.0 / 3.0, 0.5, 2.5, 4.0, 5.0) + SUITE_GAMMAS
SWEEP_N_MAX = (3, 4, 6, 10, 20, 40, 80, 120, 200, 250, 300)


@pytest.mark.parametrize("family", ["A", "B"])
@pytest.mark.parametrize("gamma", SUITE_GAMMAS)
def test_suite_sup_upper_is_not_below_its_lower(family, gamma):
    sup = tridiagonal_sup(family, gamma, 200)
    assert sup.upper >= sup.lower


@pytest.mark.parametrize("family", ["A", "B"])
@pytest.mark.parametrize("gamma", SWEEP_GAMMAS)
def test_crossing_bisection_matches_the_full_tau_scan(family, gamma):
    # reference: the bound at every one of the 121 grid points, the head
    # term by the same LAPACK bisection; past the crossing the head term
    # moves by less than an ulp, so the scan's minimum may be rounding noise
    for n_max in ((2 if family == "A" else 1),) + SWEEP_N_MAX:
        diag, off = family_tridiagonal(family, gamma, n_max + 1)
        e, head, head_off = off[-1], diag[:-1], off[:-1]
        sup = tridiagonal_sup(family, gamma, n_max)
        want = min(
            max(eigvalsh_tridiagonal(np.r_[head[:-1], head[-1] + e * tau], head_off,
                                     select="i", select_range=(head.size - 1,) * 2)[0],
                sup.tail_bound + e / tau)
            for tau in np.geomspace(1e-3, 1e3, 121))
        assert abs(sup.upper - want) <= 4 * np.spacing(want), n_max
        assert sup.upper >= sup.lower, n_max


@pytest.mark.parametrize("family, gamma, n_max",
                         [("A", 1.0, 200), ("B", 0.4, 200), ("A", 0.2, 2), ("B", 5.0, 1)])
def test_sup_takes_at_most_nine_head_eigenvalues(monkeypatch, family, gamma, n_max):
    calls = []
    lambda_max = appendix._lambda_max
    monkeypatch.setattr(appendix, "_lambda_max",
                        lambda diag, off: calls.append(diag.size) or lambda_max(diag, off))
    tridiagonal_sup(family, gamma, n_max)
    assert len(calls) <= 9


@pytest.mark.parametrize("coefficient", [nu_n, p_n, q_n, q_cert])
def test_coefficients_refuse_a_fractional_index(coefficient):
    # nu_n(2.5, 1.0) would be the complex (-1)^2.5 Gamma-ratio
    with pytest.raises(TypeError):
        coefficient(2.5, 1.0)


ENTRY_POINTS = {
    "family_tridiagonal": lambda gamma, n_max: family_tridiagonal("B", gamma, n_max),
    "tridiagonal_sup": lambda gamma, n_max: tridiagonal_sup("B", gamma, n_max),
    "kappa_tilde_1_bracket": lambda gamma, n_max: kappa_tilde_1_bracket(
        gamma, n_max=n_max, strict=False),
}


@pytest.mark.parametrize("entry", ENTRY_POINTS.values(), ids=ENTRY_POINTS)
@pytest.mark.parametrize("n_max", [200.5, 200.0, True, "200"])
def test_entry_points_refuse_an_n_max_that_is_not_an_integer(entry, n_max):
    with pytest.raises(TypeError, match="n_max"):
        entry(1.0, n_max)


@pytest.mark.parametrize("entry", ENTRY_POINTS.values(), ids=ENTRY_POINTS)
@pytest.mark.parametrize("gamma", [-1.0, 0.0, math.nan, math.inf])
def test_entry_points_refuse_a_gamma_that_is_not_finite_and_positive(entry, gamma):
    with pytest.raises(ValueError, match="gamma"):
        entry(gamma, 200)


def test_exact_sup_tends_to_one():
    # true coefficients: head supremum approaches 1 from below
    diag, off = family_tridiagonal("B", 1.0, 2000, exact=True)
    assert eigvalsh_tridiagonal(diag, off)[-1] > 0.99


def test_bracket_inversion_raises():
    # the certificate lower bound overshoots the variational upper bound;
    # strict mode must refuse to report the unsound bracket
    with pytest.raises(BracketInversionError):
        kappa_tilde_1_bracket(1.0, n_max=200, degree=8, strict=True)
    diag = kappa_tilde_1_bracket(1.0, n_max=200, degree=8, strict=False)
    assert diag.lower > diag.upper  # inversion is real, not a tolerance artifact


@given(n=st.integers(1, 500), g=st.floats(0.34, 5.0))
@settings(max_examples=80, deadline=None)
def test_coefficient_ranges(n, g):
    assert -0.5 - 1e-12 <= nu_n(n, g) <= 0.5
    assert 0.0 < p_n(n, g) < 1.0
    assert q_n(n, g) < 0.0
    assert abs(q_n(n, g)) < 0.26
    assert abs(q_cert(n, g)) <= abs(q_n(n, g))
