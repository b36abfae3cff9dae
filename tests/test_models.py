import math

import numpy as np
import pytest
from scipy.special import ellipk

from gapforge import models
from gapforge.measures import GammaShape
from gapforge.models import (
    RejectionLimitError,
    detailed_balance_defect,
    make_kernel,
    star_kernel,
)

ALL_KERNELS = ["star", "kmp", "stick", "gg3", "gg2"]


def _kernel(name):
    if name == "star":
        return make_kernel("star", m=1.0, gamma=1.5)
    if name == "stick":
        return make_kernel("stick", m=2.0)
    return make_kernel(name)


# ---------------------------------------------------------------------------
# kernel validity

@pytest.mark.parametrize("name", ALL_KERNELS)
def test_alpha_rule_normalization(name):
    kern = _kernel(name)
    for beta in (0.13, 0.37, 0.5, 0.68, 0.91):
        u, w = kern.alpha_rule(beta)
        assert abs(w.sum() - 1.0) < 1e-6
        assert np.all(u >= 0) and np.all(u <= 1)


@pytest.mark.parametrize("name", ALL_KERNELS)
def test_detailed_balance(name):
    assert detailed_balance_defect(_kernel(name)) < 1e-8


@pytest.mark.parametrize("name", ALL_KERNELS)
def test_sampler_matches_density_moments(name):
    kern = _kernel(name)
    rng = np.random.default_rng(99)
    a, b = 0.7, 0.3
    n = 40_000
    draws = np.array([kern.alpha_sampler(a, b, rng) for _ in range(n)])
    u, w = kern.alpha_rule(a / (a + b))
    for p in (1, 2):
        exact = float(np.sum(w * u**p))
        err = 4.0 * draws.std() / math.sqrt(n)
        assert abs((draws**p).mean() - exact) < max(err, 0.01)


class _AlwaysReject:
    """A generator stub whose every uniform draw is just below 1: proposals land
    at the edge where the gg2/gg3 densities are small, and acceptance needs u <= ratio."""

    def __init__(self):
        self.draws = 0

    def random(self):
        self.draws += 1
        return 1.0 - 1e-12


@pytest.mark.parametrize("name, draws_per_proposal", [("gg3", 2), ("gg2", 3)])
def test_rejection_sampler_is_capped(name, draws_per_proposal):
    rng = _AlwaysReject()
    with pytest.raises(RejectionLimitError, match="rejected"):
        make_kernel(name).alpha_sampler(0.5, 0.5, rng)
    assert issubclass(RejectionLimitError, ArithmeticError)  # cli reports it, exit 2
    assert rng.draws == draws_per_proposal * models._MAX_PROPOSALS


def test_star_rate_and_naming():
    kmp = make_kernel("kmp")
    assert kmp.name == "kmp"
    assert kmp.rate(0.4, 2.0) == 1.0
    star = star_kernel(2.0, GammaShape(1.0))
    assert star.name == "star"
    assert abs(star.rate(1.0, 2.0) - 9.0) < 1e-14


def test_stick_rate():
    stick = make_kernel("stick", m=2.0)
    # Lambda(a,b) = a^2 + b^2 for the stick family
    assert abs(stick.rate(1.0, 3.0) - 10.0) < 1e-12


RATE_PIN_KERNELS = ([("star", m) for m in (0.0, 0.5, 1.0, 2.0)]
                    + [("stick", m) for m in (0.5, 1.0, 2.0, 3.0)] + [("gg3", None), ("gg2", None)])


def _energy_pairs(n=10_000):
    """Random pairs plus pairs whose beta sits near 0, at 1/2 and near 1."""
    a, b = np.random.default_rng(3).uniform(0.0, 3.0, size=(2, n))
    edge = [(1e-300, 1.0), (1e-12, 2.0), (1.0, 1.0), (0.25, 0.25), (1.0 - 1e-9, 1e-9),
            (2.0, 1e-12), (1.0, 1e-15), (0.5 + 1e-12, 0.5), (3.0, 3.0 + 1e-9)]
    return list(zip(a.tolist(), b.tolist())) + edge


@pytest.mark.parametrize("name, m", RATE_PIN_KERNELS)
def test_scalar_rate_is_the_mechanical_form_bit_for_bit(name, m):
    # the simulator's rate is s^m rate_r(beta) with the Galerkin rate_r, to the last bit
    kern = make_kernel(name, m=m, gamma=1.0 if name == "star" else None)
    m = kern.mechanical.m
    for a, b in _energy_pairs(10_000 if name != "gg2" else 2_000):
        s = a + b
        assert kern.rate(a, b) == float(s ** m * kern.rate_r(a / s)), (a, b)


@pytest.mark.parametrize("m", [0.5, 1.0, 2.0, 3.0])
def test_stick_sampler_draws_are_pinned(m):
    kern = make_kernel("stick", m=m)

    def reference(a, b, rng):
        beta = a / (a + b)
        lam = float(kern.rate_r(beta))
        u = rng.random() * lam
        if u < beta ** m:
            return beta - (beta ** m - u) ** (1.0 / m)
        return beta + (u - beta ** m) ** (1.0 / m)

    rng_new, rng_ref = np.random.default_rng(5), np.random.default_rng(5)
    for a, b in _energy_pairs(3_000):
        assert kern.alpha_sampler(a, b, rng_new) == reference(a, b, rng_ref), (a, b)


_STICK_SCALAR_RATE = {
    # Lambda_r(beta) = beta^m + (1 - beta)^m at one float, as the simulator computes it
    0.5: lambda v: math.sqrt(v) + (1.0 - v) ** 0.5,
    1.0: lambda v: v + (1.0 - v) ** 1.0,
    2.0: lambda v: v * v + (1.0 - v) ** 2.0,
    3.0: lambda v: float(np.power(v, 3.0)) + (1.0 - v) ** 3.0,
}


@pytest.mark.parametrize("m", sorted(_STICK_SCALAR_RATE))
def test_stick_rate_r_on_an_array_is_the_scalar_rate(m):
    # the node grid evaluates rate_r on arrays, the simulator on one float
    kern = make_kernel("stick", m=m)
    beta = np.random.default_rng(11).random(100_000)
    want = np.array([_STICK_SCALAR_RATE[m](v) for v in beta.tolist()])
    assert np.array_equal(kern.rate_r(beta), want)
    assert np.array_equal(kern.rate_r(beta.reshape(400, 250)), want.reshape(400, 250))
    assert all(float(kern.rate_r(v)) == w for v, w in zip(beta[:1000].tolist(), want.tolist()))


def test_make_kernel_unknown():
    with pytest.raises(ValueError):
        make_kernel("nope")


def _gg2_pointwise(beta, a):
    """Per-point branch choice of the gg2 density: the reference for its
    vectorized form."""
    c, mx = min(beta, 1.0 - beta), max(beta, 1.0 - beta)
    if a <= c:
        x, t2 = 1.0 - beta, a / (1.0 - beta)
    elif a >= mx:
        x, t2 = beta, (1.0 - a) / beta
    elif beta <= 0.5:
        x, t2 = 1.0 - a, beta / (1.0 - a)
    else:
        x, t2 = a, (1.0 - beta) / a
    return math.inf if t2 >= 1.0 else math.sqrt(1.0 / x) * ellipk(t2)


def test_gg2_density_matches_pointwise_branches():
    for beta in (0.13, 0.37, 0.5, 0.77):
        alpha = np.concatenate([np.linspace(0.0, 1.0, 41), [beta, 1.0 - beta]])
        want = models._GG2_PREF * np.array([_gg2_pointwise(beta, a) for a in alpha])
        assert np.array_equal(models.gg2_unnormalized(beta, alpha), want)


def test_mechanical_metadata():
    assert make_kernel("gg3").mechanical.gamma_rev.gamma == 1.5
    assert make_kernel("gg3").mechanical.m == 0.5
    assert make_kernel("gg2").mechanical.gamma_rev.gamma == 1.0
    assert make_kernel("gg2").mechanical.m == 0.5
