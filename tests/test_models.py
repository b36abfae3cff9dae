import math
import warnings

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import ellipe, ellipk

from gapforge import models
from gapforge.measures import GammaShape
from gapforge.models import (
    RejectionLimitError,
    detailed_balance_defect,
    make_kernel,
    star_kernel,
)

ALL_KERNELS = ["star", "kmp", "stick", "gg3", "gg2"]
STAR_FAMILY = ["star", "kmp"]  # the kernels that carry an alpha_rule


def _kernel(name):
    if name == "star":
        return make_kernel("star", m=1.0, gamma=1.5)
    if name == "stick":
        return make_kernel("stick", m=2.0)
    return make_kernel(name)


# ---------------------------------------------------------------------------
# kernel validity

def density_integral(kern, beta, f):
    """int p(beta, alpha) f(alpha) dalpha by adaptive quadrature, split at the
    kink beta and the singularity 1 - beta of the mechanical densities."""
    return quad(lambda a: float(kern.density(beta, a)) * f(a), 0.0, 1.0,
                points=sorted({beta, 1.0 - beta}), limit=200)[0]


@pytest.mark.parametrize("name", STAR_FAMILY)
def test_alpha_rule_normalization(name):
    kern = _kernel(name)
    for beta in (0.13, 0.37, 0.5, 0.68, 0.91):
        u, w = kern.alpha_rule(beta)
        assert abs(w.sum() - 1.0) < 1e-6
        assert np.all(u >= 0) and np.all(u <= 1)


@pytest.mark.parametrize("name", STAR_FAMILY)
def test_alpha_rule_on_an_array_is_the_rows_of_scalar_calls(name):
    kern = _kernel(name)
    beta = np.array([[0.13, 0.37, 0.5 - 1e-6], [0.5, 0.5 + 1e-6, 0.91]])
    u, w = kern.alpha_rule(beta)
    n = kern.alpha_rule(0.3)[0].size
    assert u.shape == w.shape == beta.shape + (n,)
    for i, j in np.ndindex(beta.shape):
        ui, wi = kern.alpha_rule(float(beta[i, j]))
        assert np.array_equal(u[i, j], ui) and np.array_equal(w[i, j], wi), beta[i, j]


@pytest.mark.parametrize("name", ALL_KERNELS)
def test_detailed_balance(name):
    assert detailed_balance_defect(_kernel(name)) < 1e-8


@pytest.mark.parametrize("m", [0.5, 0.25])
def test_detailed_balance_of_stick_below_one_raises_no_warning(m):
    # the grid's diagonal alpha = beta is where stick m < 1 has its +inf ridge
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert detailed_balance_defect(models.stick_kernel(m)) < 1e-14


@pytest.mark.parametrize("name", ALL_KERNELS)
def test_sampler_matches_density_moments(name):
    kern = _kernel(name)
    rng = np.random.default_rng(99)
    a, b = 0.7, 0.3
    n = 40_000
    draws = np.array([kern.alpha_sampler(a, b, rng) for _ in range(n)])
    for p in (1, 2):
        exact = density_integral(kern, a / (a + b), lambda x: x**p)
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
    """Random pairs plus pairs whose beta sits at and near 0, 1/2 and 1."""
    a, b = np.random.default_rng(3).uniform(0.0, 3.0, size=(2, n))
    edge = [(1e-300, 1.0), (1e-12, 2.0), (1.0, 1.0), (0.25, 0.25), (1.0 - 1e-9, 1e-9),
            (2.0, 1e-12), (1.0, 1e-15), (0.5 + 1e-12, 0.5), (3.0, 3.0 + 1e-9),
            (0.0, 1.0), (2.0, 0.0)]
    return list(zip(a.tolist(), b.tolist())) + edge


def _gg2_array_rate_r(beta):
    """gg2's Lambda_r in array operations, as it was before its scalar form:
    the reference that form and its array map are pinned to."""
    beta = np.asarray(beta, dtype=float)
    nb = 1.0 - beta
    bstar = np.minimum(beta / nb, nb / beta)
    with np.errstate(invalid="ignore"):  # beta = 1/2: (1 - t^2) K(t) -> 0
        out = 2.0 * ellipe(bstar) - np.where(bstar < 1.0, (1.0 - bstar) * ellipk(bstar), 0.0)
    return out * np.sqrt(8.0 * np.maximum(beta, nb) / math.pi ** 3)


def _gg3_array_rate_r(beta):
    """gg3's Lambda_r in array operations, as it was before its one-float form."""
    beta = np.asarray(beta, dtype=float)
    mx = np.maximum(beta, 1.0 - beta)
    return math.sqrt(2.0 * math.pi) / 6.0 * (0.5 + mx) / np.sqrt(mx)


_STICK_SCALAR_RATE = {
    # Lambda_r(beta) = beta^m + (1 - beta)^m at one float, as the simulator computes it
    0.5: lambda v: math.sqrt(v) + (1.0 - v) ** 0.5,
    1.0: lambda v: v + (1.0 - v) ** 1.0,
    2.0: lambda v: v * v + (1.0 - v) ** 2.0,
    3.0: lambda v: float(np.power(v, 3.0)) + (1.0 - v) ** 3.0,
}


def _reference_rate_r(name, m):
    """Each kernel's Lambda_r on arrays, written apart from its one-float form."""
    if name == "star":
        return lambda beta: np.ones(np.shape(beta))
    if name == "gg3":
        return _gg3_array_rate_r
    if name == "gg2":
        return _gg2_array_rate_r
    return np.vectorize(_STICK_SCALAR_RATE[m], otypes=[float])


@pytest.mark.parametrize("name, m", RATE_PIN_KERNELS)
def test_scalar_rate_is_the_mechanical_form_bit_for_bit(name, m):
    # the simulator's rate is s^m rate_r(beta) and the Galerkin rate_r is Lambda_r, to
    # the last bit; both call one one-float Lambda_r, so both are pinned to a reference
    # written apart from it
    kern = make_kernel(name, m=m, gamma=1.0 if name == "star" else None)
    m, rate_r = kern.m, _reference_rate_r(name, m)
    pairs = _energy_pairs(10_000)
    for a, b in pairs:
        s = a + b
        with np.errstate(divide="ignore"):  # the gg2 array form divides by beta = 0
            want = float(s ** m * rate_r(a / s))
        assert kern.rate(a, b) == want, (a, b)
    beta = np.array([a / (a + b) for a, b in pairs])
    with np.errstate(divide="ignore"):
        assert np.array_equal(kern.rate_r(beta), rate_r(beta))


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


def _gg3_builtin_sampler(a, b, rng):
    """The gg3 sampler in min, max and an unconditional sqrt, as it was before
    its conditional expressions: the reference for its random stream."""
    beta = a / (a + b)
    c = min(beta, 1.0 - beta)
    for _ in range(models._MAX_PROPOSALS):
        alpha = rng.random()
        if rng.random() <= min(1.0, math.sqrt(min(alpha, 1.0 - alpha) / c)):
            return alpha
    raise RejectionLimitError("gg3", beta)


def test_gg3_sampler_draws_are_pinned():
    kern = make_kernel("gg3")
    assert type(kern.alpha_sampler) is models.UniformSampler
    rng_new, rng_ref = np.random.default_rng(5), np.random.default_rng(5)
    pairs = [(a, b) for a, b in _energy_pairs(3_000) if 0.0 < a / (a + b) < 1.0]
    want = [_gg3_builtin_sampler(a, b, rng_ref) for a, b in pairs]
    assert repr([kern.alpha_sampler(a, b, rng_new) for a, b in pairs]) == repr(want)
    assert repr(rng_new.bit_generator.state) == repr(rng_ref.bit_generator.state)


@pytest.mark.parametrize("a, b", [(0.0, 1.0), (2.0, 0.0)], ids=["beta=0", "beta=1"])
def test_gg3_sampler_at_beta_0_and_1_takes_its_first_proposal(a, b):
    # c = 0: the density is uniform and the accept test passes at once, after
    # its uniform is drawn; the builtin form divided by c
    with pytest.raises(ZeroDivisionError):
        _gg3_builtin_sampler(a, b, np.random.default_rng(8))
    rng, ref = np.random.default_rng(8), np.random.default_rng(8)
    first = ref.random()
    ref.random()
    assert make_kernel("gg3").alpha_sampler(a, b, rng) == first
    assert rng.bit_generator.state == ref.bit_generator.state


def _gg2_array_sampler(a, b, rng):
    """The gg2 sampler on the array density and rate, as it was before its
    scalar forms: the reference for their random stream."""
    beta = a / (a + b)
    lam = float(_gg2_array_rate_r(beta))
    star = 1.0 - beta
    w_left, w_right = math.sqrt(star), math.sqrt(1.0 - star)
    p_left = w_left / (w_left + w_right)
    for _ in range(models._MAX_PROPOSALS):
        u = rng.random()
        if rng.random() < p_left:
            alpha = star - star * u * u
        else:
            alpha = star + (1.0 - star) * u * u
        d = models._GG2_PREF * _gg2_pointwise(beta, alpha) / lam
        env = (math.pi / 2.0) / (lam * math.sqrt(abs(alpha - star)))
        if not math.isfinite(d):
            continue
        if rng.random() <= d / env:
            return float(alpha)
    raise RejectionLimitError("gg2", beta)


def test_gg2_sampler_draws_are_pinned():
    kern = make_kernel("gg2")
    rng_new, rng_ref = np.random.default_rng(5), np.random.default_rng(5)
    pairs = _energy_pairs(3_000)
    with np.errstate(divide="ignore"):  # the array rate divides by beta = 0
        want = [_gg2_array_sampler(a, b, rng_ref) for a, b in pairs]
    assert repr([kern.alpha_sampler(a, b, rng_new) for a, b in pairs]) == repr(want)
    assert repr(rng_new.bit_generator.state) == repr(rng_ref.bit_generator.state)


def test_gg2_sampler_skips_a_proposal_on_the_singularity():
    # at beta = 0.1 the draw u = 0 puts alpha on star = 0.9, where the density
    # rounds finite (1 - 0.9 < 0.1) but the envelope is infinite; the proposal
    # is dropped without a further draw, so the next one starts the stream anew
    class Lead:
        def __init__(self, first, rng):
            self.first, self.rng = list(first), rng

        def random(self):
            return self.first.pop(0) if self.first else self.rng.random()

    kern = make_kernel("gg2")
    got = kern.alpha_sampler(0.1, 0.9, Lead([0.0, 0.0], np.random.default_rng(6)))
    assert got == kern.alpha_sampler(0.1, 0.9, np.random.default_rng(6))


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
    """Per-point branch choice of the gg2 density, written apart from its
    one-float form: the reference for it; +inf where x = 0."""
    c, mx = min(beta, 1.0 - beta), max(beta, 1.0 - beta)
    if a <= c:
        x, y = 1.0 - beta, a
    elif a >= mx:
        x, y = beta, 1.0 - a
    elif beta <= 0.5:
        x, y = 1.0 - a, beta
    else:
        x, y = a, 1.0 - beta
    return math.inf if x == 0.0 or y / x >= 1.0 else math.sqrt(1.0 / x) * ellipk(y / x)


def test_gg2_density_matches_pointwise_branches():
    kern = make_kernel("gg2")
    for beta in (0.13, 0.37, 0.5, 0.77):
        alpha = np.concatenate([np.linspace(0.0, 1.0, 41), [beta, 1.0 - beta]])
        want = models._GG2_PREF * np.array([_gg2_pointwise(beta, a) for a in alpha])
        assert [models._gg2_unnormalized_at(beta, a) for a in alpha.tolist()] == want.tolist()
        assert np.array_equal(kern.density(beta, alpha), want / kern.rate_r(beta))
    beta, alpha = np.random.default_rng(4).random((2, 10_000)).tolist()
    for b, a in zip(beta + [0.0, 1.0, 1.0], alpha + [0.5, 0.0, 0.5]):
        assert models._gg2_unnormalized_at(b, a) == models._GG2_PREF * _gg2_pointwise(b, a), (b, a)


def test_mechanical_metadata():
    assert make_kernel("gg3").gamma.gamma == 1.5
    assert make_kernel("gg3").m == 0.5
    assert make_kernel("gg2").gamma.gamma == 1.0
    assert make_kernel("gg2").m == 0.5
