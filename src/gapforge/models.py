"""Exchange kernels: jump rate Lambda(a,b) plus the redistribution law of the
energy fraction alpha.

Every kernel is of mechanical form: Lambda(a,b) = s^m Lambda_r(beta) with
s = a+b and beta = a/s, and the alpha law depends on the pair only through
beta.  The reversible marginal of beta is Beta(gamma, gamma).  So one flat
record, ``ExchangeKernel``, holds every kernel: m, gamma, Lambda_r and the
alpha law as a density in (beta, alpha) and a sampler; the star family also
carries a quadrature rule for it.  Each factory writes its Lambda_r once, at
one float, and returns its kernel through ``_mechanical``.
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
from .quad import beta_rule

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
class ExchangeKernel:
    """A kernel of rate s^m Lambda_r(beta), s = a + b and beta = a / s,
    reversible for the product law of Gamma shape ``gamma``.

    ``rate(a, b)`` (one float pair, for the simulator) and ``rate_r(beta)``
    (arrays) call one one-float Lambda_r, so the factorization holds to the
    last bit.  ``density(beta, alpha)`` is the
    alpha law at the pair's beta, and ``alpha_sampler(a, b, rng)`` draws from
    it.  Only the star family fills ``alpha_rule``: alpha_rule(beta) returns
    quadrature (nodes, weights) with sum w_i f(u_i) = int P(beta, dalpha) f(alpha)
    over the last axis, one row per beta of an array, and builds its node grid
    of the variational assembly (stick, gg3 and gg2 take exact pair rules).
    """

    name: str
    m: float
    gamma: GammaShape
    rate: Callable[[float, float], float]
    rate_r: Callable[[np.ndarray], np.ndarray]
    density: Callable[[float, np.ndarray], np.ndarray]
    alpha_sampler: Callable[[float, float, np.random.Generator], float]
    alpha_rule: Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]] | None = None


def _mechanical(name, m, gamma, lam_r, density, sampler, rule=None) -> ExchangeKernel:
    """The kernel of rate s^m lam_r(a / s), s = a + b.  ``rate`` and ``rate_r``
    both call the one-float ``lam_r``; None stands for lam_r = 1, whose rate
    stays (a + b) ** m without the call."""
    if lam_r is None:
        def rate(a, b):
            return (a + b) ** m

        def lam_r(beta):
            return 1.0
    else:
        def rate(a, b):
            s = a + b
            return s ** m * lam_r(a / s)

    return ExchangeKernel(name, m, gamma, rate, np.vectorize(lam_r, otypes=[float]), density,
                          sampler, rule)


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

    return _mechanical("gg3", 0.5, GammaShape(1.5), _gg3_lam_r, _gg3_density, sampler)


# ---------------------------------------------------------------------------
# two-dimensional billiard-lattice kernel (gamma = 1, m = 1/2)

_GG2_PREF = math.sqrt(2.0 / math.pi ** 3)


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


def _gg2_unnormalized_at(beta: float, alpha: float) -> float:
    """The symmetric branch density at one float pair, Lambda_r(beta) times the
    alpha law; +inf at the integrable singularity alpha = 1 - beta."""
    nb, na = 1.0 - beta, 1.0 - alpha
    if alpha <= (nb if nb < beta else beta):
        x, y = nb, alpha
    elif alpha >= (nb if nb > beta else beta):
        x, y = beta, na
    else:
        x, y = (na, beta) if beta <= 0.5 else (alpha, nb)
    # t^2 = y / x on every branch; between c and max it depends on the side of 1/2
    if x == 0.0 or not y / x < 1.0:
        return math.inf
    return float(_GG2_PREF * (math.sqrt(1.0 / x) * ellipk(y / x)))


def gg2_kernel() -> ExchangeKernel:
    unnormalized = np.vectorize(_gg2_unnormalized_at, otypes=[float])

    def density(beta, alpha):
        return unnormalized(beta, alpha) / _gg2_lam_r(beta)

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

    return _mechanical("gg2", 0.5, GammaShape(1.0), _gg2_lam_r, density, sampler)


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

    return _mechanical("stick", m, GammaShape(1.0), lam_r, density, sampler)


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
    for key, given, own in (("m", m, kern.m), ("gamma", gamma, kern.gamma.gamma)):
        if given is not None and given != own:
            raise ValueError(f"kernel {name!r} has {key} = {own:g}, got {given:g}")
    return kern


def check_reversible_law(kernel: ExchangeKernel, law: SimplexLaw) -> None:
    """Raise ValueError unless ``law`` is the kernel's reversible law."""
    if law.gamma != kernel.gamma:
        raise ValueError(f"law has gamma = {law.gamma.gamma:g}, kernel {kernel.name!r} "
                         f"is reversible for gamma = {kernel.gamma.gamma:g}")


def detailed_balance_defect(kernel: ExchangeKernel, n_grid: int = 60) -> float:
    """Max asymmetry of q(beta, alpha) = Lambda_r(beta) p(beta, alpha) w_gamma(beta)
    over an interior grid; zero iff the bond dynamics is reversible for Beta(gamma, gamma)."""
    g = kernel.gamma.gamma
    # irrational offset keeps every pair (grid_i, grid_j) off the singular
    # line alpha = 1 - beta of the gg2 density
    grid = (np.arange(n_grid) + 0.5 / math.sqrt(2.0)) / n_grid
    lam = kernel.rate_r(grid)
    wg = np.exp((g - 1) * (np.log(grid) + np.log1p(-grid)) - betaln(g, g))
    q = np.empty((n_grid, n_grid))
    for i, b in enumerate(grid):
        q[i, :] = lam[i] * kernel.density(b, grid) * wg[i]
    # the gg2 density has an integrable +inf ridge at alpha = 1 - beta, which is
    # itself a symmetric set; only compare where both entries are finite
    finite = np.isfinite(q)
    if not np.array_equal(finite, finite.T):
        return math.inf
    d = np.abs(q - q.T)
    return float(np.max(d[finite & finite.T]))
