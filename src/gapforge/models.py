"""Exchange kernels: jump rate Lambda(a,b) plus the redistribution law of the
energy fraction alpha.

All concrete kernels are of mechanical form: Lambda(a,b) factorizes as
Lambda_s(a+b) * Lambda_r(a/(a+b)) with Lambda_s(s) = s^m, and the alpha law
depends on the pair only through beta = a/(a+b).  The reversible marginal of
beta is Beta(gamma, gamma) for the kernel's gamma.  Each factory writes its
Lambda_r once, at one float, and returns its kernel through ``_mechanical``.
Sampler types declare what the simulator may draw in bulk: ``BetaSampler``
(star family) and ``UniformSampler``, uniforms only (stick, gg3, gg2).

``Topology``, the bonds the kernel acts on, is shared by the Galerkin and
Monte Carlo routes: a nearest-neighbour chain or a complete graph with weight 1/N.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.special import betaln, ellipe, ellipk

from .measures import GammaShape, SimplexLaw, _check_count
from .quad import beta_rule, graded_rule, legendre_rule, power_map

__all__ = [
    "NEAREST",
    "LONG_RANGE",
    "Topology",
    "ExchangeKernel",
    "BetaSampler",
    "UniformSampler",
    "star_kernel",
    "gg3_kernel",
    "gg2_kernel",
    "stick_kernel",
    "make_kernel",
    "check_reversible_law",
    "detailed_balance_defect",
    "RejectionLimitError",
]


NEAREST = "nearest"
LONG_RANGE = "longrange"

# Proposals one rejection-sampled alpha may take.  The gg2 and gg3 samplers
# accept at least 16% and 2/3 of their proposals, so reaching the cap means the
# sampler is broken, not unlucky.
_MAX_PROPOSALS = 10_000


class RejectionLimitError(ArithmeticError):
    """A rejection sampler used up ``_MAX_PROPOSALS`` proposals without accepting."""

    def __init__(self, kernel: str, beta: float):
        super().__init__(
            f"{kernel} alpha sampler rejected {_MAX_PROPOSALS} proposals at beta = {beta!r}")


@dataclass(frozen=True)
class Topology:
    """Bond structure: nearest-neighbour chain, or complete graph with bond weight 1/N."""

    kind: str
    sites: int

    def __post_init__(self) -> None:
        if self.kind not in (NEAREST, LONG_RANGE):
            raise ValueError(f"unknown topology {self.kind!r}")
        _check_count("sites", self.sites, 2)

    @property
    def prefactor(self) -> float:
        return 1.0 / self.sites if self.kind == LONG_RANGE else 1.0

    def bonds(self) -> list[tuple[int, int]]:
        n = self.sites
        if self.kind == NEAREST:
            return [(i, i + 1) for i in range(n - 1)]
        return [(i, j) for i in range(n) for j in range(i + 1, n)]


@dataclass(frozen=True)
class MechanicalForm:
    m: float
    gamma_rev: GammaShape


@dataclass(frozen=True)
class ExchangeKernel:
    """Rate function plus redistribution kernel.

    alpha_rule(beta) returns quadrature (nodes, weights) with the density
    folded into the weights, so that sum w_i f(u_i) = int P(beta, dalpha) f(alpha)
    over the last axis; it builds the node grid of the variational assembly.
    An array of betas gives one row per beta, of shape beta.shape + (n_alpha,)
    with n_alpha fixed per kernel, so a segment empty at some beta keeps zero
    weights there (gg3's middle one at beta = 1/2).

    The factories build ``rate`` (one float pair, for the simulator) and
    ``rate_r`` (arrays, for the node grid) from one one-float Lambda_r, so
    rate(a, b) = s^m Lambda_r(a / s), s = a + b, holds to the last bit.
    """

    name: str
    rate: Callable[[float, float], float]
    alpha_density: Callable[[float, float, np.ndarray], np.ndarray]
    alpha_sampler: Callable[[float, float, np.random.Generator], float]
    mechanical: MechanicalForm
    rate_r: Callable[[np.ndarray], np.ndarray]
    alpha_rule: Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]]


def _mechanical(name, m, gamma, lam_r, density, sampler, rule) -> ExchangeKernel:
    """The kernel of rate s^m lam_r(a / s), s = a + b.  ``rate`` and ``rate_r``
    both call the one-float ``lam_r``; None stands for lam_r = 1, whose rate
    stays (a + b) ** m without the call.  ``density(beta, alpha)`` becomes
    ``alpha_density(a, b, alpha)``; samplers take (a, b, rng) as they are."""
    if lam_r is None:
        def rate(a, b):
            return (a + b) ** m

        def lam_r(beta):
            return 1.0
    else:
        def rate(a, b):
            s = a + b
            return s ** m * lam_r(a / s)

    def alpha_density(a, b, alpha):
        return density(a / (a + b), alpha)

    return ExchangeKernel(name, rate, alpha_density, sampler, MechanicalForm(m, gamma),
                          np.vectorize(lam_r, otypes=[float]), rule)


# ---------------------------------------------------------------------------
# star model: Lambda = (a+b)^m, alpha ~ Beta(gamma, gamma)

@dataclass(frozen=True)
class BetaSampler:
    """The star family's sampler: alpha ~ Beta(g, g) whatever the pair.  Its
    type declares that law, so the simulator may draw the alphas in blocks."""

    g: float

    def __call__(self, a, b, rng):
        return float(rng.beta(self.g, self.g))


@dataclass(frozen=True)
class UniformSampler:
    """A sampler whose ``draw(a, b, uniform)`` takes only uniforms, from
    ``uniform()``: the simulator may serve them in batches drawn ahead, and
    called as (a, b, rng) it takes them from ``rng.random``."""

    draw: Callable[[float, float, Callable[[], float]], float]

    def __call__(self, a, b, rng):
        return self.draw(a, b, rng.random)


def star_kernel(m: float, gamma: GammaShape) -> ExchangeKernel:
    if not math.isfinite(m):
        raise ValueError(f"star kernel requires a finite m, got {m}")
    g = gamma.gamma
    lognorm = betaln(g, g)

    def density(beta, alpha):
        alpha = np.asarray(alpha, dtype=float)
        return np.exp((g - 1) * (np.log(alpha) + np.log1p(-alpha)) - lognorm)

    def rule(beta):
        u, w = beta_rule(g, g, 48)
        shape = np.shape(beta) + u.shape
        return np.broadcast_to(u, shape), np.broadcast_to(w, shape)

    name = "kmp" if (m == 0 and g == 1) else "star"
    return _mechanical(name, m, gamma, None, density, BetaSampler(g), rule)


# ---------------------------------------------------------------------------
# three-dimensional billiard-lattice kernel (gamma = 3/2, m = 1/2)

_GG3_PREF = math.sqrt(2.0 * math.pi) / 6.0


def _gg3_lam_r(beta: float) -> float:
    mx = 1.0 - beta if beta < 0.5 else beta
    return _GG3_PREF * (0.5 + mx) / math.sqrt(mx)


def _gg3_density(beta: float, alpha) -> np.ndarray:
    alpha = np.asarray(alpha, dtype=float)
    c = min(beta, 1.0 - beta)
    mx = max(beta, 1.0 - beta)
    ratio = np.minimum(alpha, 1.0 - alpha) / c
    return 1.5 * np.minimum(1.0, np.sqrt(ratio)) / (0.5 + mx)


def gg3_kernel() -> ExchangeKernel:
    @UniformSampler
    def sampler(a, b, uniform):
        beta = a / (a + b)
        c = 1.0 - beta if beta > 0.5 else beta
        # uniform proposal; accept with 1 ^ sqrt((alpha ^ (1-alpha)) / c), 1 from c on
        for _ in range(_MAX_PROPOSALS):
            alpha = uniform()
            lo = 1.0 - alpha if alpha > 0.5 else alpha
            if uniform() <= (math.sqrt(lo / c) if lo < c else 1.0):
                return alpha
        raise RejectionLimitError("gg3", beta)

    def rule(beta):
        c = np.minimum(beta, 1.0 - beta)
        mx = np.maximum(beta, 1.0 - beta)
        const = (1.5 / (0.5 + mx))[..., None]
        root_c = np.sqrt(c)[..., None]
        # density const * sqrt(alpha / c) below c, const between c and max,
        # and its mirror image above max
        lu, lw = power_map(0.0, c, 0.5, 32, True)
        mu, mw = legendre_rule(c, mx, 32)
        ru, rw = power_map(mx, 1.0, 0.5, 32, False)
        return (np.concatenate([lu, mu, ru], axis=-1),
                np.concatenate([lw * const / root_c, mw * const, rw * const / root_c], axis=-1))

    return _mechanical("gg3", 0.5, GammaShape(1.5), _gg3_lam_r, _gg3_density, sampler, rule)


# ---------------------------------------------------------------------------
# two-dimensional billiard-lattice kernel (gamma = 1, m = 1/2)

_GG2_PREF = math.sqrt(2.0 / math.pi ** 3)
# within this of beta = 1/2 the kink beta and the singularity 1 - beta are too close
# for a smooth segment between them; it is below the Galerkin beta grid's nearest
# node to 1/2 (3.07e-4 away at 48 nodes per half), so no grid moves
_GG2_HALF_BAND = 2.5e-4


def _gg2_lam_r(beta: float) -> float:
    """Lambda_r at one float; the sampler uses it too."""
    nb = 1.0 - beta
    # bstar is the squared modulus, i.e. scipy's parameter, matching the
    # K(sqrt(.)) pattern of the redistribution density; with it the
    # normalization int P~ dalpha = Lambda_r holds to machine precision
    bstar = beta / nb if beta <= nb else nb / beta
    # beta = 1/2: (1 - t^2) K(t) -> 0
    out = 2.0 * ellipe(bstar) - ((1.0 - bstar) * ellipk(bstar) if bstar < 1.0 else 0.0)
    return float(out * math.sqrt(8.0 * (nb if nb > beta else beta) / math.pi ** 3))


def gg2_unnormalized(beta, alpha) -> np.ndarray:
    """The symmetric branch density, with beta broadcast against alpha (at
    least 1-D); +inf at the integrable singularity alpha = 1 - beta."""
    alpha = np.atleast_1d(np.asarray(alpha, dtype=float))
    nb, na = 1.0 - beta, 1.0 - alpha
    lo, hi = alpha <= np.minimum(beta, nb), alpha >= np.maximum(beta, nb)
    # t^2 = y / x on every branch; between c and max it depends on the side of 1/2
    x = np.where(lo, nb, np.where(hi, beta, np.where(beta <= 0.5, na, alpha)))
    y = np.where(lo, alpha, np.where(hi, na, np.where(beta <= 0.5, beta, nb)))
    with np.errstate(divide="ignore", invalid="ignore"):
        t2 = y / x
    out = np.full_like(t2, np.inf)
    fin = t2 < 1.0
    out[fin] = np.sqrt(1.0 / x[fin]) * ellipk(t2[fin])
    return _GG2_PREF * out


def _gg2_unnormalized_at(beta: float, alpha: float) -> float:
    """gg2_unnormalized at one float pair, in the same operations."""
    nb, na = 1.0 - beta, 1.0 - alpha
    if alpha <= (nb if nb < beta else beta):
        x, y = nb, alpha
    elif alpha >= (nb if nb > beta else beta):
        x, y = beta, na
    else:
        x, y = (na, beta) if beta <= 0.5 else (alpha, nb)
    if x == 0.0 or not y / x < 1.0:
        return math.inf
    return float(_GG2_PREF * (math.sqrt(1.0 / x) * ellipk(y / x)))


def gg2_kernel() -> ExchangeKernel:
    def density(beta, alpha):
        return gg2_unnormalized(beta, alpha) / _gg2_lam_r(beta)

    @UniformSampler
    def sampler(a, b, uniform):
        beta = a / (a + b)
        lam = _gg2_lam_r(beta)
        star = 1.0 - beta  # location of the log singularity
        # envelope (pi/2) / (lam * sqrt(|alpha - star|)), from (1 - t^2 sin^2) >= 1 - t^2
        w_left, w_right = math.sqrt(star), math.sqrt(1.0 - star)
        p_left = w_left / (w_left + w_right)
        for _ in range(_MAX_PROPOSALS):
            u = uniform()
            if uniform() < p_left:
                alpha = star - star * u * u
            else:
                alpha = star + (1.0 - star) * u * u
            d = _gg2_unnormalized_at(beta, alpha) / lam
            if alpha == star or not math.isfinite(d):  # alpha on the singularity
                continue
            env = (math.pi / 2.0) / (lam * math.sqrt(abs(alpha - star)))
            if uniform() <= d / env:
                return alpha
        raise RejectionLimitError("gg2", beta)

    def rule(beta):
        beta = np.asarray(beta, dtype=float)
        star = 1.0 - beta  # location of the log singularity
        left = beta < 0.5 - _GG2_HALF_BAND
        # graded segments [p, star] and [star, q] meet at the singularity; the smooth
        # one ([0, p] first left of 1/2, else [q, 1] last) is [1, 1], empty, within
        # _GG2_HALF_BAND of 1/2, where it would end at a kink beside the singularity
        p = np.where(left, beta, 0.0)
        q = np.where(beta > 0.5 + _GG2_HALF_BAND, beta, 1.0)
        su, sw = legendre_rule(np.where(left, 0.0, q), np.where(left, p, 1.0), 48)
        hu, hw = graded_rule(p, star, "hi", n_per_cell=32, n_cells=16)
        lu, lw = graded_rule(star, q, "lo", n_per_cell=32, n_cells=16)
        rows = np.concatenate([[su, sw], [hu, hw], [lu, lw]], axis=-1)
        u, w = np.where(left[..., None], rows, np.roll(rows, -su.shape[-1], axis=-1))
        return u, w * gg2_unnormalized(beta[..., None], u) / kernel.rate_r(beta)[..., None]

    kernel = _mechanical("gg2", 0.5, GammaShape(1.0), _gg2_lam_r, density, sampler, rule)
    return kernel


# ---------------------------------------------------------------------------
# stick process (gamma = 1)

def stick_kernel(m: float) -> ExchangeKernel:
    if not 0 < m < math.inf:
        raise ValueError(f"stick kernel requires a finite m > 0, got {m}")
    # Lambda_r at one float.  Its operations fix the simulator's random stream:
    # numpy's 0-d ** for the first power (beta itself at m = 1, a square root at
    # m = 1/2, a square at m = 2, np.power at other m) and Python's pow for the second.
    power = {0.5: math.sqrt, 2.0: lambda v: v * v}.get(m, lambda v: float(np.power(v, m)))

    if m == 1.0:
        def lam_r(beta):
            return beta + (1.0 - beta) ** m
    else:
        def lam_r(beta):
            return power(beta) + (1.0 - beta) ** m

    def density(beta, alpha):
        alpha = np.asarray(alpha, dtype=float)
        return m * np.abs(beta - alpha) ** (m - 1.0) / lam_r(beta)

    @UniformSampler
    def sampler(a, b, uniform):
        # piecewise power-law CDF inverts in closed form
        beta = a / (a + b)
        head = beta ** m
        u = uniform() * lam_r(beta)
        if u < head:
            return beta - (head - u) ** (1.0 / m)
        return beta + (u - head) ** (1.0 / m)

    def rule(beta):
        lu, lw = power_map(0.0, beta, m - 1.0, 48, False)
        ru, rw = power_map(beta, 1.0, m - 1.0, 48, True)
        return (np.concatenate([lu, ru], axis=-1),
                np.concatenate([lw, rw], axis=-1) * m / kernel.rate_r(beta)[..., None])

    kernel = _mechanical("stick", m, GammaShape(1.0), lam_r, density, sampler, rule)
    return kernel


# ---------------------------------------------------------------------------

def make_kernel(name: str, m: float | None = None, gamma: float | None = None) -> ExchangeKernel:
    """Kernel selection by string identifier (CLI / config surface).

    An unset m or gamma takes the kernel's own value (star: m = 0, gamma = 1;
    stick: m = 1); a given value the kernel cannot take raises ValueError.
    """
    name = name.lower()
    if name == "star":
        return star_kernel(0.0 if m is None else m, GammaShape(1.0 if gamma is None else gamma))
    if name == "kmp":
        kern = star_kernel(0.0, GammaShape(1.0))
    elif name == "gg3":
        kern = gg3_kernel()
    elif name == "gg2":
        kern = gg2_kernel()
    elif name == "stick":
        kern = stick_kernel(1.0 if m is None else m)
    else:
        raise ValueError(f"unknown kernel {name!r}")
    mech = kern.mechanical
    for key, given, own in (("m", m, mech.m), ("gamma", gamma, mech.gamma_rev.gamma)):
        if given is not None and given != own:
            raise ValueError(f"kernel {name!r} has {key} = {own:g}, got {given:g}")
    return kern


def check_reversible_law(kernel: ExchangeKernel, law: SimplexLaw) -> None:
    """Raise ValueError unless ``law`` is the kernel's reversible law."""
    if law.gamma != kernel.mechanical.gamma_rev:
        raise ValueError(f"law has gamma = {law.gamma.gamma:g}, kernel {kernel.name!r} "
                         f"is reversible for gamma = {kernel.mechanical.gamma_rev.gamma:g}")


def detailed_balance_defect(kernel: ExchangeKernel, n_grid: int = 60) -> float:
    """Max asymmetry of q(beta, alpha) = Lambda_r(beta) p(beta, alpha) w_gamma(beta)
    over an interior grid; zero iff the bond dynamics is reversible for Beta(gamma, gamma)."""
    g = kernel.mechanical.gamma_rev.gamma
    # irrational offset keeps every pair (grid_i, grid_j) off the singular
    # line alpha = 1 - beta of the gg2 density
    grid = (np.arange(n_grid) + 0.5 / math.sqrt(2.0)) / n_grid
    lam = kernel.rate_r(grid)
    wg = np.exp((g - 1) * (np.log(grid) + np.log1p(-grid)) - betaln(g, g))
    q = np.empty((n_grid, n_grid))
    for i, b in enumerate(grid):
        dens = kernel.alpha_density(b, 1.0 - b, grid)
        q[i, :] = lam[i] * dens * wg[i]
    # the gg2 density has an integrable +inf ridge at alpha = 1 - beta, which is
    # itself a symmetric set; only compare where both entries are finite
    finite = np.isfinite(q)
    if not np.array_equal(finite, finite.T):
        return math.inf
    d = np.abs(q - q.T)
    return float(np.max(d[finite & finite.T]))
