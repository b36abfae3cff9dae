import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gapforge.measures import GammaShape, pair_alpha_moment
from gapforge.quad import (
    beta_rule,
    graded_rule,
    legendre_rule,
    orthonormal_values,
    power_rule,
    stieltjes_recurrence,
)


def test_beta_rule_matches_beta_moments():
    for g in (0.5, 1.0, 1.5, 3.0):
        u, w = beta_rule(g, g, 24)
        for a in range(6):
            exact = pair_alpha_moment(GammaShape(g), a, 0)
            assert abs(np.sum(w * u**a) - exact) < 1e-13


def test_beta_rule_asymmetric():
    u, w = beta_rule(1.0, 2.0, 16)
    # Beta(1,2): E[u] = 1/3, E[u^2] = 1/6
    assert abs(np.sum(w * u) - 1.0 / 3.0) < 1e-14
    assert abs(np.sum(w * u * u) - 1.0 / 6.0) < 1e-14


@given(g=st.floats(0.2, 5.0), n=st.integers(4, 40))
@settings(max_examples=40, deadline=None)
def test_beta_rule_is_probability_rule(g, n):
    u, w = beta_rule(g, g, n)
    assert np.all(u > 0) and np.all(u < 1)
    assert abs(w.sum() - 1.0) < 1e-12


def test_power_rule_endpoint_singularity():
    # integral over [0,1] of u^(-1/2) * u du = 2/3
    u, w = power_rule(0.0, 1.0, -0.5, 16, True)
    assert abs(np.sum(w * u) - 2.0 / 3.0) < 1e-13
    # integral over [0,1] of (1-u)^(-1/2) du = 2
    u, w = power_rule(0.0, 1.0, -0.5, 16, False)
    assert abs(w.sum() - 2.0) < 1e-13


def test_legendre_rule_polynomial_exactness():
    u, w = legendre_rule(-1.0, 2.0, 10)
    # integral of u^3 over [-1, 2] = 15/4
    assert abs(np.sum(w * u**3) - 15.0 / 4.0) < 1e-12


def test_stieltjes_orthonormality():
    u, w = beta_rule(1.5, 1.5, 60)
    a, b = stieltjes_recurrence(u, w, 12)
    vals = orthonormal_values(a, b, u)
    gram = (vals * w) @ vals.T
    assert np.max(np.abs(gram - np.eye(13))) < 1e-10


def test_graded_rule_log_singularity():
    # integral over [0,1] of -log(u) du = 1
    u, w = graded_rule(0.0, 1.0, "lo", n_per_cell=16, n_cells=20)
    assert abs(np.sum(-w * np.log(u)) - 1.0) < 1e-10


def test_cached_rules_are_read_only():
    for rule, args in ((beta_rule, (1.5, 1.5, 12)), (power_rule, (0.0, 0.5, -0.5, 12, True))):
        u, w = rule(*args)
        u0, w0 = u.copy(), w.copy()
        with pytest.raises(ValueError):
            u[0] = 0.5
        with pytest.raises(ValueError):
            w *= 2.0
        u1, w1 = rule(*args)
        assert np.array_equal(u1, u0) and np.array_equal(w1, w0)
