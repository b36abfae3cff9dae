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


@pytest.mark.parametrize("n_max", [3, 12, 19, 20])
def test_certificate_limits_need_three_tail_points(n_max):
    # the tail n >= 20 holds at most one point here; a fit on no rows read 0.0
    rep = verify_certificates(1.0, n_max=n_max)
    assert rep["limit_a"] is None and rep["limit_b"] is None, rep
    assert math.isfinite(rep["raw_tail_a"]) and math.isfinite(rep["raw_tail_b"])
    fitted = verify_certificates(1.0, n_max=22)  # n = 20, 21, 22
    assert type(fitted["limit_a"]) is float and type(fitted["limit_b"]) is float, fitted


def test_prop_reports_all_pass():
    for g in (0.4, 1.0, 2.0):
        for rec in verify_prop_a(g, n_max=100) + verify_prop_b(g, n_max=100):
            assert rec["pass"], rec


def test_monotonicity_zero_violations():
    for rec in monotonicity_report((0.2, 1.0 / 3.0, 0.5, 2.0 / 3.0, 1.0, 2.0, 3.0), n_max=50):
        assert rec["violations"] == 0, rec


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


@pytest.mark.parametrize("coefficient", [nu_n, p_n, q_n, q_cert])
@pytest.mark.parametrize("n", [-1, -3, np.array([2, -1, 3]), np.array([-2], dtype=np.int8)],
                         ids=["-1", "-3", "array", "int8-array"])
def test_coefficients_refuse_a_negative_index(coefficient, n):
    with pytest.raises(ValueError, match="n must be nonnegative"):
        coefficient(n, 1.0)


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


# each n_max taker and the least n_max it accepts
LEAST_N_MAX = {
    "family_tridiagonal_A": (lambda n_max: family_tridiagonal("A", 1.0, n_max), 2),  # -4 gave empty arrays
    "family_tridiagonal_B": (lambda n_max: family_tridiagonal("B", 1.0, n_max), 1),
    "tridiagonal_sup_A": (lambda n_max: tridiagonal_sup("A", 1.0, n_max), 1),
    "tridiagonal_sup_B": (lambda n_max: tridiagonal_sup("B", 1.0, n_max), 0),
    "certificate_alphas": (lambda n_max: appendix.certificate_alphas(1.0, n_max), 2),
    "certificate_betas": (lambda n_max: appendix.certificate_betas(1.0, n_max), 1),
    "certificate_expressions": (lambda n_max: appendix.certificate_expressions(1.0, n_max), 2),
    "monotonicity_report": (lambda n_max: monotonicity_report((1.0,), n_max), 3),
}


@pytest.mark.parametrize("call, least", LEAST_N_MAX.values(), ids=LEAST_N_MAX)
def test_entry_points_refuse_an_n_max_below_their_least(call, least):
    for n_max in (least - 1, -4):
        with pytest.raises(ValueError, match=f"n_max must be at least {least}, got {n_max}"):
            call(n_max)
    with pytest.raises(TypeError, match="n_max must be an integer"):
        call(float(least + 3))


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


# ---------------------------------------------------------------------------
# the array route against the per-n loops it replaced

ARRAY_GAMMAS = [0.2, 1.0 / 3.0, 0.4, 0.5, 2.0 / 3.0, 1.0, 1.5, 2.0, 7.0 / 3.0, 3.0, 5.0]
ARRAY_N_MAX = [3, 12, 50, 200]


def _scalar_or_nan(coefficient, n, gamma):
    # p_n(0, 2/3), q_n(0, 1/3) and q_cert(0, 1/3) divide 0 by 0: a Python
    # float division raises there, numpy's gives nan
    try:
        return coefficient(n, gamma)
    except ZeroDivisionError:
        return math.nan


@pytest.mark.parametrize("gamma", ARRAY_GAMMAS)
@pytest.mark.parametrize("coefficient", [nu_n, p_n, q_n, q_cert])
def test_coefficients_on_an_integer_array_equal_the_scalar_calls(coefficient, gamma):
    ns = np.arange(2001)
    want = np.array([_scalar_or_nan(coefficient, int(n), gamma) for n in ns])
    with np.errstate(invalid="ignore"):
        got = coefficient(ns, gamma)
        narrow = coefficient(ns[:256].astype(np.uint8), gamma)
    assert got.shape == ns.shape
    finite = ~np.isnan(want)
    assert np.all(got[finite] == want[finite])
    assert np.all(np.isnan(got[~finite])) and (~finite).sum() <= 1
    assert np.array_equal(narrow, got[:256], equal_nan=True)


@pytest.mark.parametrize("coefficient", [nu_n, p_n, q_n, q_cert])
@pytest.mark.parametrize("ns", [np.arange(3.0), np.array([True, False])], ids=["float", "bool"])
def test_coefficients_refuse_an_array_that_is_not_integer(coefficient, ns):
    with pytest.raises(TypeError, match="integer dtype"):
        coefficient(ns, 1.0)


def _ref_family_tridiagonal(family, gamma, n_max, exact):
    qfun = q_n if exact else q_cert
    ks = np.arange(2 if family == "A" else 1, n_max + 1)
    c = np.array([1.0 + 2.0 * nu_n(int(k), gamma) if family == "A"
                  else 1.0 - nu_n(int(k), gamma) for k in ks])
    diag = c * np.array([p_n(int(k), gamma) for k in ks])
    q = np.array([abs(qfun(int(k), gamma)) for k in ks[:-1]])
    return diag, np.sqrt(c[:-1] * c[1:]) * q


def _ref_alternating(c, gamma, n0, n_max):
    out = np.ones(n_max + 1)
    for n in range(n0, n_max + 1):
        gap = 1.0 / c(n) - 0.5
        gap_next = 1.0 / c(n + 1) - 0.5
        if n == n0:
            out[n] = max(abs(q_cert(n0, gamma)) / gap, 1.0)
        elif n % 2 == n0 % 2:
            out[n] = max(2.0 * abs(q_cert(n, gamma)) / gap, 1.0)
        else:
            out[n] = 1.0 / max(2.0 * abs(q_cert(n, gamma)) / gap_next, 1.0)
    return out


def _ref_certificate_expressions(gamma, n_max):
    a = appendix.certificate_alphas(gamma, n_max)
    b = appendix.certificate_betas(gamma, n_max)
    ea = np.empty(n_max - 1)
    for n in range(2, n_max + 1):
        ea[n - 2] = (1.0 + 2.0 * nu_n(n, gamma)) * (
            p_n(n, gamma) + abs(q_cert(n, gamma)) / a[n] + abs(q_cert(n - 1, gamma)) * a[n - 1]
        )
    eb = np.empty(n_max)
    for n in range(1, n_max + 1):
        prev = abs(q_cert(n - 1, gamma)) * b[n - 1] if n > 1 else 0.0
        eb[n - 1] = (1.0 - nu_n(n, gamma)) * (
            p_n(n, gamma) + abs(q_cert(n, gamma)) / b[n] + prev
        )
    return ea, eb


def _ref_monotonicity_report(gammas, n_max):
    gammas = sorted(gammas)
    records = []

    def add(fact, gamma, viol):
        records.append({"fact": fact, "gamma": gamma, "violations": int(viol)})

    for g in gammas:
        nu = np.array([abs(nu_n(n, g)) for n in range(1, n_max + 1)])
        p = np.array([p_n(n, g) for n in range(1, n_max + 1)])
        q = np.array([abs(q_cert(n, g)) for n in range(1, n_max + 1)])
        add("abs_nu_decreasing_in_n", g, np.sum(np.diff(nu) >= 1e-15))
        add("p_positive", g, np.sum(p <= 0))
        if g < 2.0 / 3.0:
            add("p_increasing_below_half", g, np.sum(np.diff(p) <= 0) + np.sum(p >= 0.5))
        elif g == 2.0 / 3.0:
            add("p_equals_half", g, np.sum(np.abs(p - 0.5) > 1e-12))
        else:
            add("p_decreasing", g, np.sum(np.diff(p) >= 0))
        if g <= 2.0:
            add("abs_q_decreasing_from_2", g, np.sum(np.diff(q[1:]) >= 0))
        elif g <= 7.0 / 3.0:
            add("abs_q_decreasing_from_3", g, np.sum(np.diff(q[2:]) >= 0))
        if g >= 0.2:
            bound = 1.0 / (4.0 * np.sqrt(np.arange(1, n_max + 1) + g))
            add("sqrt_estimate", g, np.sum(q > bound))
        ratios = []
        for n in range(2, n_max):
            top = (1 + 2 * abs(nu_n(n + 1, g))) / (1 - 2 * abs(nu_n(n + 1, g)))
            bot = (1 - 2 * abs(nu_n(n, g))) / (1 + 2 * abs(nu_n(n, g)))
            ratios.append(top * bot)
        ratios = np.array(ratios)
        add("nu_ratio_min_at_2", g, np.sum(ratios < ratios[0] - 1e-14))

    for i in range(len(gammas) - 1):
        g1, g2 = gammas[i], gammas[i + 1]
        for n in range(1, n_max + 1):
            if abs(nu_n(n, g2)) > abs(nu_n(n, g1)) + 1e-15:
                add("abs_nu_decreasing_in_gamma", g2, 1)
                break
        else:
            add("abs_nu_decreasing_in_gamma", g2, 0)
        if g1 >= 1.0 / 3.0:
            viol = sum(1 for n in range(1, n_max + 1) if p_n(n, g2) < p_n(n, g1) - 1e-15)
            add("p_increasing_in_gamma", g2, viol)
        viol = sum(1 for n in range(3, n_max + 1)
                   if abs(q_cert(n, g2)) > abs(q_cert(n, g1)) + 1e-15)
        if g1 >= 0.1:
            viol += 1 if abs(q_cert(2, g2)) > abs(q_cert(2, g1)) + 1e-15 else 0
        add("abs_q_decreasing_in_gamma", g2, viol)
    return records


@pytest.mark.parametrize("n_max", ARRAY_N_MAX)
@pytest.mark.parametrize("gamma", ARRAY_GAMMAS)
def test_sequence_consumers_equal_their_per_n_loops(gamma, n_max):
    for family in ("A", "B"):
        for exact in (False, True):
            got = family_tridiagonal(family, gamma, n_max, exact=exact)
            want = _ref_family_tridiagonal(family, gamma, n_max, exact)
            assert all(np.array_equal(g, w) for g, w in zip(got, want)), (family, exact)
    if gamma < 2.0 / 3.0:
        alphas = appendix.certificate_alphas(gamma, n_max)
        want = _ref_alternating(lambda n: 1.0 + 2.0 * nu_n(n, gamma), gamma, 2, n_max)
        assert np.array_equal(alphas[2:], want[2:])
        betas = appendix.certificate_betas(gamma, n_max)
        want = _ref_alternating(lambda n: 1.0 - nu_n(n, gamma), gamma, 1, n_max)
        assert np.array_equal(betas[1:], want[1:])
    got = appendix.certificate_expressions(gamma, n_max)
    want = _ref_certificate_expressions(gamma, n_max)
    assert all(np.array_equal(g, w) for g, w in zip(got, want))


@pytest.mark.parametrize("n_max", ARRAY_N_MAX)
def test_monotonicity_report_equals_its_per_n_loops(n_max):
    # 0.05 takes the cross-gamma |q| fact from n = 3, the rest from n = 2
    gammas = [0.05, *ARRAY_GAMMAS]
    assert monotonicity_report(gammas, n_max) == _ref_monotonicity_report(gammas, n_max)


@pytest.mark.parametrize("n_max", [0, 1, 2])
def test_monotonicity_report_needs_three_rows(n_max):
    with pytest.raises(ValueError, match="n_max"):
        monotonicity_report((1.0,), n_max)


def test_bracket_consistency_refuses_a_nan_side(monkeypatch):
    bracket = kappa_tilde_1_bracket(1.0, n_max=12, strict=False)
    assert bracket.consistent is (bracket.lower <= bracket.upper + 1e-8)
    assert not appendix.KappaBracket(0.3, math.nan, 1.0, 12, 8, bracket.family_a,
                                     bracket.family_b).consistent
    monkeypatch.setattr(appendix, "kappa_tilde", lambda m, gamma, degree: math.nan)
    with pytest.raises(BracketInversionError):
        kappa_tilde_1_bracket(1.0, n_max=12, strict=True)


def _ref_verify_appendix_records(n_max):
    """The appendix block of ``cli.cmd_verify`` as it stood before
    ``run_checks`` held it: the same grids, thresholds and record order."""
    checks = []
    gamma_grid = (1.0 / 3.0, 0.4, 2.0 / 3.0, 1.0, 1.5, 2.0, 3.0)
    for g in gamma_grid:
        cert = appendix.verify_certificates(g, n_max=n_max)
        # a limit fitted to fewer than 3 tail points is None, and fails
        ok = (cert["ok"] and cert["limit_a"] is not None and cert["limit_b"] is not None
              and abs(cert["limit_a"] - 0.5) < 1e-2 and abs(cert["limit_b"] - 0.5) < 1e-2)
        checks.append({"claim": "certificate-sup", "pass": ok, **cert})
    for rec in appendix.verify_prop_a(1.0, n_max=n_max):
        checks.append(rec)
    for rec in appendix.verify_prop_b(1.0, n_max=n_max):
        checks.append(rec)
    for rec in appendix.monotonicity_report(
            (0.2, 1.0 / 3.0, 0.5, 2.0 / 3.0, 1.0, 2.0, 3.0), n_max=50):
        ok = rec["violations"] == 0
        checks.append({"claim": rec["fact"], "pass": ok, **rec})
    for g in (0.4, 2.0 / 3.0, 1.0, 1.5, 2.0, 3.0):
        bracket = appendix.kappa_tilde_1_bracket(g, n_max=n_max, strict=False)
        ok = (bracket.lower > 1.0 / 3.0
              and bracket.lower <= bracket.upper + 1e-8
              and bracket.upper - bracket.lower < 5e-3)
        checks.append({
            "claim": "kappa-tilde-bracket", "gamma": g,
            "lower": bracket.lower, "upper": bracket.upper, "pass": ok,
        })
    return checks


@pytest.mark.parametrize("n_max", [3, 12, 60])
def test_run_checks_equals_the_cli_block_it_replaced(n_max):
    got = appendix.run_checks(n_max)
    assert got == _ref_verify_appendix_records(n_max)
    assert all(type(rec["pass"]) is bool for rec in got)
    certs = [rec for rec in got if rec.get("claim") == "certificate-sup"]
    # below n_max = 20 no tail limit is fitted, and the certificate records fail
    assert len(certs) == 7
    assert all((rec["limit_a"] is None and not rec["pass"]) is (n_max < 20) for rec in certs)
