"""Variational (Galerkin) spectral-gap computation on polynomial subspaces.

The gap of the exchange generator on the mean-energy simplex is approximated
from above by restricting the Rayleigh quotient D(f)/Var(f) to polynomials of
total degree <= d in the first N-1 energies.  Both the Gram matrix and the
Dirichlet matrix factorize exactly over the stick-breaking decomposition
(s, beta, rest) of a bond, so the only numerical integration left is the
one-dimensional (beta, alpha) kernel integral I(a, b, a', b').
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import eigvalsh, solve_triangular
from scipy.special import gammaln

from .measures import GammaShape, SimplexLaw, dirichlet_moment, pair_alpha_moment
from .models import LONG_RANGE, NEAREST, ExchangeKernel, Topology, check_reversible_law, star_kernel
from .quad import beta_rule, graded_rule, orthonormal_values, power_rule, stieltjes_recurrence

__all__ = [
    "build_basis",
    "KernelIntegrals",
    "assemble",
    "solve_gap",
    "spectral_gap",
    "GapResult",
    "two_site_constant",
    "kappa",
    "kappa_tilde",
]

_N_BETA = 48  # beta quadrature order of the kernel node grid


def build_basis(N: int, degree: int) -> list[tuple[int, ...]]:
    """Monomial exponent vectors over x_1..x_{N-1}, graded lexicographic,
    total degree <= degree.  The constraint eliminates x_N."""
    if N < 2:
        raise ValueError("need N >= 2")
    out: list[tuple[int, ...]] = []
    for total in range(degree + 1):
        for k in itertools.product(range(total + 1), repeat=N - 1):
            if sum(k) == total:
                out.append(k)
    return out


def _beta_grid(kernel: ExchangeKernel, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes/weights integrating F against the Beta(gamma, gamma) reversible
    marginal, adapted to the kernel's Lambda_r (kink at 1/2, endpoint
    singularities of fractional stick exponents)."""
    g = kernel.mechanical.gamma_rev.gamma
    lognorm = gammaln(g) * 2 - gammaln(2 * g)
    if kernel.name == "stick":
        # cells must stay exact for products of two basis polynomials
        u, w = graded_rule(0.0, 1.0, "both", n_per_cell=max(n, 48), n_cells=16)
        w = w * np.exp((g - 1) * (np.log(u) + np.log1p(-u)) - lognorm)
        return u, w
    # split at the Lambda_r kink; Beta endpoint weight handled exactly
    u1, w1 = power_rule(0.0, 0.5, g - 1.0, n, True)
    w1 = w1 * (1.0 - u1) ** (g - 1.0) / math.exp(lognorm)
    u2, w2 = power_rule(0.5, 1.0, g - 1.0, n, False)
    w2 = w2 * u2 ** (g - 1.0) / math.exp(lognorm)
    return np.concatenate([u1, u2]), np.concatenate([w1, w2])


class KernelIntegrals:
    """Cached evaluation of I(a, b, a', b') =
    E_beta[ Lambda_r(beta) int P(beta, dalpha)
            (g_ab(alpha) - g_ab(beta)) (g_a'b'(alpha) - g_a'b'(beta)) ]
    with g_ab(u) = u^a (1-u)^b.

    For the star family the integral is the exact covariance formula; for the
    mechanical kernels it is a positive quadrature form, evaluated as a dot
    product of per-(a,b) difference vectors so that the I matrix is PSD by
    construction.
    """

    def __init__(self, kernel: ExchangeKernel):
        self.kernel = kernel
        self.gamma = kernel.mechanical.gamma_rev
        self._exact = kernel.name in ("star", "kmp")
        self._vecs: dict[tuple[float, float], np.ndarray] = {}
        self._cache: dict[tuple, float] = {}
        # the (beta, alpha) node grid is built even for the star family (whose
        # monomial integrals are closed-form) so that grid-based consumers like
        # two_site_constant can treat every kernel uniformly
        bu, bw = _beta_grid(kernel, _N_BETA)
        alphas, betas, weights = [], [], []
        lam = np.atleast_1d(kernel.rate_r(bu))
        for i, b in enumerate(bu):
            au, aw = kernel.alpha_rule(b)
            alphas.append(au)
            betas.append(np.full(au.size, b))
            weights.append(bw[i] * lam[i] * aw)
        self.alpha_nodes = np.concatenate(alphas)
        self.beta_nodes = np.concatenate(betas)
        self.node_weights = np.concatenate(weights)
        self._sqw = np.sqrt(self.node_weights)

    def _vec(self, a: float, b: float) -> np.ndarray:
        key = (a, b)
        v = self._vecs.get(key)
        if v is None:
            ga = self.alpha_nodes ** a * (1.0 - self.alpha_nodes) ** b
            gb = self.beta_nodes ** a * (1.0 - self.beta_nodes) ** b
            v = self._sqw * (ga - gb)
            self._vecs[key] = v
        return v

    def __call__(self, a: float, b: float, ap: float, bp: float) -> float:
        key = (a, b, ap, bp) if (a, b) <= (ap, bp) else (ap, bp, a, b)
        val = self._cache.get(key)
        if val is None:
            if self._exact:
                g = self.gamma
                val = 2.0 * (
                    pair_alpha_moment(g, a + ap, b + bp)
                    - pair_alpha_moment(g, a, b) * pair_alpha_moment(g, ap, bp)
                )
            else:
                val = float(np.dot(self._vec(a, b), self._vec(ap, bp)))
            self._cache[key] = val
        return val


def _s_moment(gamma: float, N: int, p: float, q: float) -> float:
    """E[v^p (1-v)^q] for v ~ Beta(2 gamma, (N-2) gamma); valid for real p > -2 gamma."""
    a, b = 2.0 * gamma, (N - 2) * gamma
    log = (
        gammaln(a + p) + gammaln(b + q) + gammaln(a + b)
        - gammaln(a) - gammaln(b) - gammaln(a + b + p + q)
    )
    return float(np.exp(log))


def assemble(
    law: SimplexLaw,
    kernel: ExchangeKernel,
    degree: int,
    topology: str = NEAREST,
) -> tuple[np.ndarray, np.ndarray, list[tuple[int, ...]]]:
    """Dirichlet matrix A and Gram matrix G on the monomial basis.

    A[q, r] = D(f_q, f_r), G[q, r] = E[f_q f_r] under the conditioned measure,
    which must be the kernel's reversible law.
    """
    check_reversible_law(kernel, law)
    N, E = law.sites, law.mean_energy
    g = law.gamma.gamma
    m = kernel.mechanical.m
    basis = build_basis(N, degree)
    dim = len(basis)
    full = np.zeros((dim, N), dtype=float)
    for q, k in enumerate(basis):
        full[q, : N - 1] = k
    topo = Topology(topology, N)
    bonds, wbond = topo.bonds(), topo.prefactor
    I = KernelIntegrals(kernel)

    NE = N * E
    G = np.empty((dim, dim))
    for q in range(dim):
        for r in range(q, dim):
            k = full[q] + full[r]
            G[q, r] = G[r, q] = NE ** k.sum() * dirichlet_moment(law.gamma, N, k)

    A = np.zeros((dim, dim))
    rest_mask = np.ones(N, dtype=bool)
    for (i, j) in bonds:
        rest_mask[:] = True
        rest_mask[[i, j]] = False
        for q in range(dim):
            kq = full[q]
            a, b = kq[i], kq[j]
            for r in range(q, dim):
                kr = full[r]
                ap, bp = kr[i], kr[j]
                ival = I(a, b, ap, bp)
                if ival == 0.0:
                    continue
                krest = (kq + kr)[rest_mask]
                p = m + a + b + ap + bp
                if N == 2:
                    val = 0.5 * wbond * (2.0 * E) ** p * ival
                else:
                    val = (
                        0.5
                        * wbond
                        * NE ** (p + krest.sum())
                        * _s_moment(g, N, p, krest.sum())
                        * dirichlet_moment(GammaShape(g), N - 2, krest)
                        * ival
                    )
                A[q, r] += val
                if r != q:
                    A[r, q] += val
    return A, G, basis


@dataclass(frozen=True)
class GapResult:
    value: float
    degree: int
    dimension: int
    history: tuple[float, ...] = field(default_factory=tuple)
    gram_condition: float = float("nan")


def _whitened_pencil(A: np.ndarray, G: np.ndarray, cond_limit: float = math.inf):
    """Reduce the pencil (A, G) on a basis whose first element is the constant.

    Constants are deflated by a Schur complement of the Gram matrix, the rest
    is scaled to unit Gram diagonal (factor d) and whitened with the Cholesky
    factor L of the scaled Gram matrix.  Returns (M, L, d, gram condition);
    an eigenvector v of the symmetric M holds the coefficients
    d * L^-T v on basis elements 1..n-1.
    """
    if A.shape[0] < 2:
        raise ValueError("need at least one non-constant basis function")
    Gs = G[1:, 1:] - np.outer(G[1:, 0], G[0, 1:]) / G[0, 0]
    d = 1.0 / np.sqrt(np.diag(Gs))
    Gs = Gs * np.outer(d, d)
    Gs = 0.5 * (Gs + Gs.T)
    ge = eigvalsh(Gs)
    cond = float(ge[-1] / ge[0]) if ge[0] > 0 else float("inf")
    if not np.isfinite(cond) or cond > cond_limit:
        raise np.linalg.LinAlgError(
            f"Gram matrix too ill-conditioned (cond ~ {cond:.3e}); lower the degree"
        )
    L = np.linalg.cholesky(Gs)
    Y = solve_triangular(L, A[1:, 1:] * np.outer(d, d), lower=True)
    M = solve_triangular(L, Y.T, lower=True)
    return 0.5 * (M + M.T), L, d, cond


def solve_gap(A: np.ndarray, G: np.ndarray, cond_limit: float = 1e12) -> tuple[float, float]:
    """Smallest Rayleigh quotient D(f)/Var(f) over the span, constants removed.

    Returns (gap, gram condition estimate) from the lowest eigenvalue of the
    whitened pencil.
    """
    M, _, _, cond = _whitened_pencil(A, G, cond_limit)
    return float(eigvalsh(M)[0]), cond


def spectral_gap(
    law: SimplexLaw,
    kernel: ExchangeKernel,
    degree: int,
    topology: str = NEAREST,
    cond_limit: float = 1e12,
) -> GapResult:
    """Galerkin upper bound on the spectral gap, with the per-degree history
    (non-increasing in the degree by subspace nesting).  One assembly at the top
    degree serves every degree: the graded basis is prefix-nested."""
    if degree < 1:
        raise ValueError(f"Galerkin degree must be at least 1, got {degree}")
    A, G, basis = assemble(law, kernel, degree, topology)
    history = []
    for d in range(1, degree + 1):
        n = len(build_basis(law.sites, d))
        val, cond = solve_gap(A[:n, :n], G[:n, :n], cond_limit)
        history.append(val)
    return GapResult(
        value=history[-1],
        degree=degree,
        dimension=len(basis),
        history=tuple(history),
        gram_condition=cond,
    )


def two_site_constant(kernel: ExchangeKernel, degree: int = 30) -> float:
    """The two-site constant: infimum of
    (1/2) E_mu[Lambda_r(beta) int P(beta, dalpha) (f(alpha) - f(beta))^2] / Var_mu(f)
    over polynomials f of the given degree, mu = Beta(gamma, gamma).

    Worked in the basis orthonormal w.r.t. mu (Gram = identity), so high
    degrees stay well conditioned.
    """
    if degree < 1:
        raise ValueError(f"two-site degree must be at least 1, got {degree}")
    I = KernelIntegrals(kernel)
    g = kernel.mechanical.gamma_rev.gamma
    u, w = beta_rule(g, g, 4 * (degree + 2))
    ra, rb = stieltjes_recurrence(u, w, degree)
    phi_a = orthonormal_values(ra, rb, I.alpha_nodes)
    phi_b = orthonormal_values(ra, rb, I.beta_nodes)
    diff = (phi_a - phi_b)[1:] * np.sqrt(I.node_weights)
    A = 0.5 * (diff @ diff.T)
    return float(eigvalsh(0.5 * (A + A.T))[0])


_KAPPA_COND_LIMIT = 1e14  # degree-8 monomial Gram matrices reach cond ~3e12


def _three_site_gap(topology: str, m: float, gamma: float, degree: int,
                    mean_energy: float) -> float:
    law = SimplexLaw(GammaShape(gamma), mean_energy, 3)
    return spectral_gap(law, star_kernel(m, GammaShape(gamma)), degree, topology,
                        cond_limit=_KAPPA_COND_LIMIT).value


def kappa(m: float, gamma: float, degree: int = 8, mean_energy: float = 1.0 / 3.0) -> float:
    """kappa_m: nearest-neighbor three-site gap of the star-m chain at E = 1/3."""
    return _three_site_gap(NEAREST, m, gamma, degree, mean_energy)


def kappa_tilde(m: float, gamma: float, degree: int = 8, mean_energy: float = 1.0 / 3.0) -> float:
    """kappa~_m: long-range three-site gap of the star-m model at E = 1/3."""
    return _three_site_gap(LONG_RANGE, m, gamma, degree, mean_energy)
