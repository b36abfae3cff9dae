"""Acceptance gate: one test per release criterion, at the stated tolerances.

Criterion 4 (the certified bracket on the three-site constant) is expected to
fail: the certificate coefficient sequence does not dominate the true
off-diagonal constants, the strict bracket raises, and the suite reports the
inversion honestly rather than loosening the check.
"""

import math
import time

import numpy as np
import pytest

from gapforge import appendix, bounds, simulate
from gapforge.galerkin import spectral_gap, two_site_constant
from gapforge.measures import GammaShape, SimplexLaw
from gapforge.models import (
    LONG_RANGE,
    NEAREST,
    Topology,
    detailed_balance_defect,
    make_kernel,
    star_kernel,
)


def test_criterion_01_exact_m0_formula():
    t0 = time.time()
    for g in (0.5, 1.0, 1.5, 2.0):
        for N in range(2, 7):
            law = SimplexLaw(GammaShape(g), 1.0, N)
            got = spectral_gap(law, star_kernel(0.0, GammaShape(g)), 3, LONG_RANGE).value
            want = (g * N + 1.0) / (N * (2.0 * g + 1.0))
            assert abs(got - want) < 1e-8, (g, N)
    assert time.time() - t0 < 60.0


def test_criterion_02_two_site_identity():
    for m in (0.0, 0.5, 1.0, 2.0):
        for E in (0.5, 1.0, 2.0):
            law = SimplexLaw(GammaShape(1.0), E, 2)
            got = spectral_gap(law, star_kernel(m, GammaShape(1.0)), 4, NEAREST).value
            want = 2.0**m * E**m
            assert abs(got - want) / want < 1e-6, (m, E)


def test_criterion_03_scaling():
    for m in (0.0, 0.5, 1.0, 2.0):
        law1 = SimplexLaw(GammaShape(1.0), 1.0, 3)
        base = spectral_gap(law1, star_kernel(m, GammaShape(1.0)), 3, LONG_RANGE).value
        for E in (0.5, 2.0):
            law = SimplexLaw(GammaShape(1.0), E, 3)
            got = spectral_gap(law, star_kernel(m, GammaShape(1.0)), 3, LONG_RANGE).value
            assert abs(got - E**m * base) / (E**m * base) < 1e-10, (m, E)


def test_criterion_04_kappa_tilde_bracket():
    # EXPECTED TO FAIL: the certificate lower bound exceeds the variational
    # upper bound (the strict bracket raises BracketInversionError), because
    # the certified coefficient sequence decays while the true off-diagonal
    # constants tend to -1/4.  The check is kept at full strength.
    t0 = time.time()
    for g in (0.4, 2.0 / 3.0, 1.0, 1.5, 2.0, 3.0):
        bracket = appendix.kappa_tilde_1_bracket(g, n_max=200, degree=8,
                                                 strict=True)
        assert bracket.lower > 1.0 / 3.0, g
        assert bracket.lower <= bracket.upper, g
        assert bracket.width < 5e-3, g
    assert time.time() - t0 < 120.0


def test_criterion_05_appendix_constants_cross_validation():
    for g in (0.5, 1.0, 1.5):
        assert abs(appendix.nu_n(1, g) + 0.5) < 1e-12
        for n in range(1, 11):
            assert abs(appendix.nu_n(n, g) - appendix.nu_quadrature(n, g)) < 1e-8
            assert abs(appendix.p_n(n, g) - appendix.p_quadrature(n, g)) < 1e-8
            assert abs(appendix.q_n(n, g) - appendix.q_quadrature(n, g)) < 1e-8
    for n in range(1, 11):
        assert abs(appendix.p_n(n, 2.0 / 3.0) - 0.5) < 1e-12


def test_criterion_06_certificate_sups():
    for g in (1.0 / 3.0, 0.4, 2.0 / 3.0, 1.0, 1.5, 2.0, 3.0):
        rep = appendix.verify_certificates(g, n_max=200)
        assert rep["sup_a"] < 1.0 and rep["sup_b"] < 1.0, (g, rep)
        assert abs(rep["limit_a"] - 0.5) < 1e-2, (g, rep)
        assert abs(rep["limit_b"] - 0.5) < 1e-2, (g, rep)


def test_criterion_07_monotonicity_suite():
    grid = (0.2, 1.0 / 3.0, 0.5, 2.0 / 3.0, 1.0, 2.0, 3.0)
    records = appendix.monotonicity_report(grid, n_max=50)
    assert records
    violations = [r for r in records if r["violations"] != 0]
    assert violations == []


def test_criterion_08_section5_constants():
    assert two_site_constant(make_kernel("gg2")) >= math.sqrt(1.0 / (2.0 * math.pi))
    c20 = two_site_constant(make_kernel("gg3"), degree=20)
    c30 = two_site_constant(make_kernel("gg3"), degree=30)
    assert c30 > 0
    assert abs(c30 - c20) < 1e-4  # plateau-stable
    assert abs(two_site_constant(make_kernel("stick", m=1.0)) - 1.0) < 1e-6
    for m in (2.0, 3.0):
        assert (two_site_constant(make_kernel("stick", m=m))
                >= bounds.stick_two_site_lower(m))


def test_criterion_09_inequality_harness():
    for n in (3, 4, 5):
        assert bounds.check_convex(1.0, 1.0, n_sites=n).margin > 0
    for n in (3, 4):
        assert bounds.check_compm2m(0.5, 1.0, n_sites=n).margin > 0
    for name in ("gg3", "gg2", "stick"):
        assert bounds.check_prop21(name).margin > 0
    cases = [("star", 0.0, 1.0), ("star", 0.5, 1.0), ("star", 1.0, 1.0),
             ("stick", 1.0, 1.0), ("stick", 2.0, 1.0),
             ("gg3", 0.5, 1.5), ("gg2", 0.5, 1.0)]
    for name, m, g in cases:
        c = bounds.check_compare_and_main(name, m, g, n_range=range(2, 7))
        assert c.passed, c.to_record()


@pytest.mark.slow
def test_criterion_10_monte_carlo_consistency():
    t0 = time.time()
    cases = [
        ("star", 0.0, 1.0, 2, NEAREST),
        ("star", 0.0, 1.0, 2, LONG_RANGE),
        ("star", 0.0, 1.0, 3, NEAREST),
        ("star", 0.0, 1.0, 3, LONG_RANGE),
        ("stick", 1.0, 1.0, 3, NEAREST),
    ]
    for idx, (name, m, g, N, topo_kind) in enumerate(cases):
        kern = make_kernel(name, m=m, gamma=g)
        law = SimplexLaw(GammaShape(g), 1.0, N)
        topo = Topology(topo_kind, N)
        reference = spectral_gap(law, kern, 6, topo_kind).value
        obs = simulate.slowest_mode_observable(law, kern, 3, topo_kind)
        rng = np.random.default_rng(1000 + idx)
        est = simulate.estimate_gap_autocorr(
            kern, topo, law, rng, n_events=10_000_000, observable=obs,
            observable_name="galerkin_mode")
        assert not est.flagged, (name, N, topo_kind, est)
        z = abs(est.value - reference) / est.stderr
        assert z <= 3.0, (name, N, topo_kind, est.value, reference, est.stderr)
    assert time.time() - t0 < 600.0


def test_criterion_11_kernel_validity():
    specs = [("star", 1.0, 1.5), ("kmp", 0.0, 1.0), ("stick", 2.0, 1.0),
             ("gg3", 0.5, 1.5), ("gg2", 0.5, 1.0)]
    for name, m, g in specs:
        kern = make_kernel(name, m=m, gamma=g)
        assert detailed_balance_defect(kern) < 1e-8, name
        for beta in (0.11, 0.33, 0.5, 0.72, 0.94):
            _, w = kern.alpha_rule(beta)
            assert abs(w.sum() - 1.0) < 1e-6, (name, beta)


def test_criterion_12_moving_path():
    for i in range(1, 22):
        for j in range(i + 1, 22):
            bounds.build_moving_path(i, j)  # all invariants asserted inside
    assert bounds.build_moving_path(1, 3).sites == (1, 2, 3, 1, 2, 3)


def test_criterion_13_negative_m_remark():
    c = bounds.check_negative_m_remark(m=-1.0, n_sites=16, n_samples=200_000,
                                       seed=0)
    assert c.rhs == pytest.approx(1.0 / 8.0)
    assert c.passed, c.to_record()
