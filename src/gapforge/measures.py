"""Conditioned product-Gamma measures on the constant-energy simplex.

The equilibrium law of an energy chain with N sites, mean energy E per site
and Gamma shape gamma is a scaled symmetric Dirichlet: x = N*E*w with
w ~ Dirichlet(gamma, ..., gamma).  Everything downstream (Gram matrices,
equilibrium tests) reduces to Dirichlet moments, which we evaluate exactly
in log space.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln

__all__ = [
    "GammaShape",
    "SimplexLaw",
    "EnergyConfiguration",
    "sample_matrix",
    "dirichlet_moment",
    "pair_alpha_moment",
]

ENERGY_RTOL = 1e-12


@dataclass(frozen=True)
class GammaShape:
    """Shape parameter of the Gamma marginal (scale is fixed to 1)."""

    gamma: float

    def __post_init__(self) -> None:
        if not self.gamma > 0:
            raise ValueError(f"gamma must be positive, got {self.gamma}")


@dataclass(frozen=True)
class SimplexLaw:
    """Conditioned product-Gamma law on the mean-energy-E simplex."""

    gamma: GammaShape
    mean_energy: float
    sites: int

    def __post_init__(self) -> None:
        if not self.mean_energy > 0:
            raise ValueError("mean_energy must be positive")
        if self.sites < 1:
            raise ValueError("need at least one site")

    @property
    def total_energy(self) -> float:
        return self.mean_energy * self.sites


@dataclass(frozen=True)
class EnergyConfiguration:
    """Positive energy vector with declared mean energy."""

    x: np.ndarray
    mean_energy: float

    def __post_init__(self) -> None:
        x = np.asarray(self.x, dtype=float)
        object.__setattr__(self, "x", x)
        total = self.mean_energy * x.size
        if np.any(x <= 0):
            raise ValueError("all energies must be positive")
        if abs(x.sum() - total) > ENERGY_RTOL * total:
            raise ValueError("energies do not sum to N*E")

    @property
    def sites(self) -> int:
        return self.x.size


def sample_matrix(law: SimplexLaw, n_samples: int, rng: np.random.Generator) -> np.ndarray:
    """Exact samples of the conditioned measure, one configuration per row of
    an (n_samples, N) array: N independent Gamma(gamma, 1) variates scaled to
    sum N*E.  numpy's gamma sampler is exact for shape < 1 as well; a zero
    draw (a measure-zero event) is clipped to the smallest positive float."""
    if law.sites == 1:
        return np.full((n_samples, 1), law.mean_energy)
    g = rng.gamma(law.gamma.gamma, 1.0, size=(n_samples, law.sites))
    g = np.clip(g, np.finfo(float).tiny, None)
    return law.total_energy * g / g.sum(axis=1, keepdims=True)


def dirichlet_moment(gamma: GammaShape, N: int, k) -> float:
    """E[prod w_i^{k_i}] for w ~ symmetric Dirichlet(gamma, ..., gamma) on N coords.

    Computed as prod Gamma(gamma+k_i)/Gamma(gamma) * Gamma(N gamma)/Gamma(N gamma + sum k)
    entirely in log space.  Exponents may be nonnegative reals.
    """
    k = np.asarray(k, dtype=float)
    if k.size != N:
        raise ValueError(f"expected {N} exponents, got {k.size}")
    _check_exponents(k)
    g = gamma.gamma
    log = (
        np.sum(gammaln(g + k) - gammaln(g))
        + gammaln(N * g)
        - gammaln(N * g + k.sum())
    )
    return float(np.exp(log))


def pair_alpha_moment(gamma: GammaShape, a, b):
    """E[alpha^a (1-alpha)^b] for alpha ~ Beta(gamma, gamma); a float, or an
    array of them for array exponents (broadcast)."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    _check_exponents(a)
    _check_exponents(b)
    g = gamma.gamma
    log = gammaln(g + a) + gammaln(g + b) + gammaln(2 * g) - gammaln(g) * 2 - gammaln(2 * g + a + b)
    out = np.exp(log)
    return float(out) if out.ndim == 0 else out


def _check_exponents(k: np.ndarray) -> None:
    if not np.all(np.isfinite(k)):
        raise ValueError(f"exponents must be finite, got {k}")
    if np.any(k < 0):
        raise ValueError("negative exponents not supported")
