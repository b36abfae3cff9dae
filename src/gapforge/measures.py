"""Conditioned product-Gamma measures on the constant-energy simplex.

The equilibrium law of an energy chain with N sites, mean energy E per site
and Gamma shape gamma is a scaled symmetric Dirichlet: x = N*E*w with
w ~ Dirichlet(gamma, ..., gamma).  Everything downstream (Gram matrices,
equilibrium tests) reduces to Dirichlet moments, which we evaluate exactly
in log space.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln

__all__ = [
    "GammaShape",
    "SimplexLaw",
    "sample_matrix",
    "dirichlet_moment",
    "pair_alpha_moment",
]

ENERGY_RTOL = 1e-12  # relative drift of the total energy N*E a run may show


def _check_count(name: str, value, least: int) -> None:
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise TypeError(f"{name} must be an integer, got {value!r}")
    if value < least:
        raise ValueError(f"{name} must be at least {least}, got {value}")


def _check_positive(name: str, value) -> None:
    if isinstance(value, bool) or not 0 < value < np.inf:
        raise ValueError(f"{name} must be a positive finite number, got {value}")


@dataclass(frozen=True)
class GammaShape:
    """Shape parameter of the Gamma marginal (scale is fixed to 1)."""

    gamma: float

    def __post_init__(self) -> None:
        _check_positive("gamma", self.gamma)


@dataclass(frozen=True)
class SimplexLaw:
    """Conditioned product-Gamma law on the mean-energy-E simplex of at least two sites."""

    gamma: GammaShape
    mean_energy: float
    sites: int

    def __post_init__(self) -> None:
        _check_positive("mean_energy", self.mean_energy)
        _check_count("sites", self.sites, 2)

    @property
    def total_energy(self) -> float:
        return self.mean_energy * self.sites


def sample_matrix(law: SimplexLaw, n_samples: int, rng: np.random.Generator) -> np.ndarray:
    """Exact samples of the conditioned measure, one configuration per row of
    an (n_samples, N) array: N independent Gamma(gamma, 1) variates scaled to
    sum N*E.  numpy's gamma sampler is exact for shape < 1 as well; a zero
    draw (a measure-zero event) is clipped to the smallest positive float."""
    g = rng.gamma(law.gamma.gamma, 1.0, size=(n_samples, law.sites))
    np.clip(g, np.finfo(float).tiny, None, out=g)  # in place: N*E * g / sum(g)
    total = g.sum(axis=1, keepdims=True)
    g *= law.total_energy
    g /= total
    return g


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
