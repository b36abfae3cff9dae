"""Exchange kernels: jump rate Lambda(a,b) plus the redistribution law of the
energy fraction alpha.

All concrete kernels are of mechanical form: Lambda(a,b) factorizes as
Lambda_s(a+b) * Lambda_r(a/(a+b)) with Lambda_s(s) = s^m, and the alpha law
depends on the pair only through beta = a/(a+b).  The reversible marginal of
beta is Beta(gamma, gamma) for the kernel's gamma.

``Topology``, the bonds the kernel acts on, is shared by the Galerkin and
Monte Carlo routes: a nearest-neighbour chain or a complete graph with weight 1/N.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.special import betaln, ellipe, ellipk

from .measures import GammaShape, SimplexLaw
from .quad import beta_rule, graded_rule, legendre_rule, power_rule

__all__ = [
    "NEAREST",
    "LONG_RANGE",
    "Topology",
    "ExchangeKernel",
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
        if self.sites < 2:
            raise ValueError("need at least two sites")

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
    folded into the weights, so that sum w_i f(u_i) = int P(beta, dalpha) f(alpha);
    it is the workhorse of the variational assembly.
    """

    name: str
    rate: Callable[[float, float], float]
    alpha_density: Callable[[float, float, np.ndarray], np.ndarray]
    alpha_sampler: Callable[[float, float, np.random.Generator], float]
    mechanical: MechanicalForm
    rate_r: Callable[[np.ndarray], np.ndarray]
    alpha_rule: Callable[[float], tuple[np.ndarray, np.ndarray]]


# ---------------------------------------------------------------------------
# star model: Lambda = (a+b)^m, alpha ~ Beta(gamma, gamma)

def star_kernel(m: float, gamma: GammaShape) -> ExchangeKernel:
    g = gamma.gamma
    lognorm = betaln(g, g)

    def rate(a, b):
        return (a + b) ** m

    def density(a, b, alpha):
        alpha = np.asarray(alpha, dtype=float)
        return np.exp((g - 1) * (np.log(alpha) + np.log1p(-alpha)) - lognorm)

    def sampler(a, b, rng):
        return float(rng.beta(g, g))

    def rule(beta):
        return beta_rule(g, g, 48)

    name = "kmp" if (m == 0 and g == 1) else "star"
    return ExchangeKernel(
        name=name,
        rate=rate,
        alpha_density=density,
        alpha_sampler=sampler,
        mechanical=MechanicalForm(m=m, gamma_rev=gamma),
        rate_r=lambda beta: np.ones_like(np.asarray(beta, dtype=float)),
        alpha_rule=rule,
    )


# ---------------------------------------------------------------------------
# three-dimensional billiard-lattice kernel (gamma = 3/2, m = 1/2)

_GG3_PREF = math.sqrt(2.0 * math.pi) / 6.0


def _gg3_rate_r(beta):
    beta = np.asarray(beta, dtype=float)
    mx = np.maximum(beta, 1.0 - beta)
    return _GG3_PREF * (0.5 + mx) / np.sqrt(mx)


def _gg3_density(beta: float, alpha) -> np.ndarray:
    alpha = np.asarray(alpha, dtype=float)
    c = min(beta, 1.0 - beta)
    mx = max(beta, 1.0 - beta)
    ratio = np.minimum(alpha, 1.0 - alpha) / c
    return 1.5 * np.minimum(1.0, np.sqrt(ratio)) / (0.5 + mx)


def gg3_kernel() -> ExchangeKernel:
    mech = MechanicalForm(m=0.5, gamma_rev=GammaShape(1.5))

    def rate(a, b):
        # _gg3_rate_r for one float, in the same operations
        s = a + b
        mx = max(a / s, 1.0 - a / s)
        return s ** 0.5 * (_GG3_PREF * (0.5 + mx) / math.sqrt(mx))

    def density(a, b, alpha):
        return _gg3_density(a / (a + b), alpha)

    def sampler(a, b, rng):
        beta = a / (a + b)
        c = min(beta, 1.0 - beta)
        # uniform proposal; accept with 1 ^ sqrt((alpha ^ (1-alpha)) / c)
        for _ in range(_MAX_PROPOSALS):
            alpha = rng.random()
            if rng.random() <= min(1.0, math.sqrt(min(alpha, 1.0 - alpha) / c)):
                return alpha
        raise RejectionLimitError("gg3", beta)

    def rule(beta):
        c = min(beta, 1.0 - beta)
        mx = max(beta, 1.0 - beta)
        const = 1.5 / (0.5 + mx)
        nodes, weights = [], []
        # alpha < c: density = const * sqrt(alpha/c)
        u, w = power_rule(0.0, c, 0.5, 32, True)
        nodes.append(u)
        weights.append(w * const / math.sqrt(c))
        if mx > c:
            u, w = legendre_rule(c, mx, 32)
            nodes.append(u)
            weights.append(w * const)
        u, w = power_rule(mx, 1.0, 0.5, 32, False)
        nodes.append(u)
        weights.append(w * const / math.sqrt(c))
        return np.concatenate(nodes), np.concatenate(weights)

    return ExchangeKernel("gg3", rate, density, sampler, mech, _gg3_rate_r, rule)


# ---------------------------------------------------------------------------
# two-dimensional billiard-lattice kernel (gamma = 1, m = 1/2)

_GG2_PREF = math.sqrt(2.0 / math.pi ** 3)


def _gg2_rate_r(beta):
    beta = np.atleast_1d(np.asarray(beta, dtype=float))
    mx = np.maximum(beta, 1.0 - beta)
    # bstar is the squared modulus, i.e. scipy's parameter, matching the
    # K(sqrt(.)) pattern of the redistribution density; with it the
    # normalization int P~ dalpha = Lambda_r holds to machine precision
    bstar = np.minimum(beta / (1.0 - beta), (1.0 - beta) / beta)
    out = 2.0 * ellipe(bstar)
    part = bstar < 1.0  # beta = 1/2: (1 - t^2) K(t) -> 0
    out[part] -= (1.0 - bstar[part]) * ellipk(bstar[part])
    out *= np.sqrt(8.0 * mx / math.pi ** 3)
    return out if out.size > 1 else float(out[0])


def gg2_unnormalized(beta: float, alpha) -> np.ndarray:
    """The symmetric branch density; +inf at the integrable singularity alpha = 1 - beta."""
    alpha = np.atleast_1d(np.asarray(alpha, dtype=float))
    c = min(beta, 1.0 - beta)
    mx = max(beta, 1.0 - beta)
    lo, hi = alpha <= c, alpha >= mx
    with np.errstate(divide="ignore", invalid="ignore"):
        if beta <= 0.5:
            x, t2 = 1.0 - alpha, beta / (1.0 - alpha)
        else:
            x, t2 = alpha, (1.0 - beta) / alpha
        x = np.where(lo, 1.0 - beta, np.where(hi, beta, x))
        t2 = np.where(lo, alpha / (1.0 - beta), np.where(hi, (1.0 - alpha) / beta, t2))
    out = np.full_like(alpha, np.inf)
    fin = t2 < 1.0
    out[fin] = np.sqrt(1.0 / x[fin]) * ellipk(t2[fin])
    return _GG2_PREF * out


def gg2_kernel() -> ExchangeKernel:
    mech = MechanicalForm(m=0.5, gamma_rev=GammaShape(1.0))

    def rate(a, b):
        s = a + b
        return float(s ** 0.5 * _gg2_rate_r(a / s))

    def density(a, b, alpha):
        beta = a / (a + b)
        return gg2_unnormalized(beta, alpha) / _gg2_rate_r(beta)

    def sampler(a, b, rng):
        beta = a / (a + b)
        lam = float(_gg2_rate_r(beta))
        star = 1.0 - beta  # location of the log singularity
        # envelope (pi/2) / (lam * sqrt(|alpha - star|)), from (1 - t^2 sin^2) >= 1 - t^2
        w_left, w_right = math.sqrt(star), math.sqrt(1.0 - star)
        p_left = w_left / (w_left + w_right)
        for _ in range(_MAX_PROPOSALS):
            u = rng.random()
            if rng.random() < p_left:
                alpha = star - star * u * u
            else:
                alpha = star + (1.0 - star) * u * u
            d = float(gg2_unnormalized(beta, alpha)[0]) / lam
            env = (math.pi / 2.0) / (lam * math.sqrt(abs(alpha - star)))
            if not math.isfinite(d):
                continue
            if rng.random() <= d / env:
                return float(alpha)
        raise RejectionLimitError("gg2", beta)

    def rule(beta):
        c = min(beta, 1.0 - beta)
        mx = max(beta, 1.0 - beta)
        star = 1.0 - beta
        lam = float(_gg2_rate_r(beta))
        nodes, weights = [], []
        if beta < 0.5:
            segs = [(0.0, c, None), (c, star, "hi"), (star, 1.0, "lo")]
        elif beta > 0.5:
            segs = [(0.0, star, "hi"), (star, mx, "lo"), (mx, 1.0, None)]
        else:
            segs = [(0.0, 0.5, "hi"), (0.5, 1.0, "lo")]
        for lo, hi, sing in segs:
            if hi - lo <= 0:
                continue
            if sing is None:
                u, w = legendre_rule(lo, hi, 48)
            else:
                u, w = graded_rule(lo, hi, sing, n_per_cell=32, n_cells=16)
            nodes.append(u)
            weights.append(w * gg2_unnormalized(beta, u) / lam)
        return np.concatenate(nodes), np.concatenate(weights)

    return ExchangeKernel("gg2", rate, density, sampler, mech, _gg2_rate_r, rule)


# ---------------------------------------------------------------------------
# stick process (gamma = 1)

def stick_kernel(m: float) -> ExchangeKernel:
    if m <= 0:
        raise ValueError("stick kernel requires m > 0")
    mech = MechanicalForm(m=m, gamma_rev=GammaShape(1.0))

    # Lambda_r at one float.  Its operations fix the simulator's random stream:
    # numpy's 0-d ** for the first power (a square root at m = 1/2, a square at
    # m = 2, np.power at other m) and Python's pow for the second.
    power = {0.5: math.sqrt, 1.0: float, 2.0: lambda v: v * v}.get(
        m, lambda v: float(np.power(v, m)))

    def lam_r(beta):
        return power(beta) + (1.0 - beta) ** m

    # element by element, so the node grid sees the simulator's rates: numpy's
    # array ** can differ from pow in the last bit
    rate_r = np.vectorize(lam_r, otypes=[float])

    def rate(a, b):
        s = a + b
        return s ** m * lam_r(a / s)

    def density(a, b, alpha):
        beta = a / (a + b)
        alpha = np.asarray(alpha, dtype=float)
        return m * np.abs(beta - alpha) ** (m - 1.0) / lam_r(beta)

    def sampler(a, b, rng):
        # piecewise power-law CDF inverts in closed form
        beta = a / (a + b)
        lam = lam_r(beta)
        u = rng.random() * lam
        if u < beta ** m:
            return beta - (beta ** m - u) ** (1.0 / m)
        return beta + (u - beta ** m) ** (1.0 / m)

    def rule(beta):
        lam = lam_r(beta)
        nodes, weights = [], []
        if beta > 0:
            u, w = power_rule(0.0, beta, m - 1.0, 48, False)
            nodes.append(u)
            weights.append(w * m / lam)
        if beta < 1:
            u, w = power_rule(beta, 1.0, m - 1.0, 48, True)
            nodes.append(u)
            weights.append(w * m / lam)
        return np.concatenate(nodes), np.concatenate(weights)

    return ExchangeKernel("stick", rate, density, sampler, mech, rate_r, rule)


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
    lam = np.atleast_1d(kernel.rate_r(grid))
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
