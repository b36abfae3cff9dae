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
form for the star family, V V^T otherwise on the node grid, read in slices of
whole beta rows).  Both run over blocks of rows, so memory stays bounded at
any N, and each entry takes the scalar formula's floating-point operations.
The node grid of stick, gg3 and gg2 is an exact tensor Gauss rule for their
joint weight of (alpha, beta), a few thousand nodes.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
from scipy.linalg import eigvalsh, solve_triangular
from scipy.special import ellipkm1, gammaln

from .measures import GammaShape, SimplexLaw, _check_count, pair_alpha_moment
from .models import _GG2_PREF, LONG_RANGE, NEAREST, ExchangeKernel, Topology, check_reversible_law, star_kernel
from .quad import (_read_only, beta_rule, gauss_rule, graded_rule, legendre_rule, orthonormal_values,
                   power_rule, stieltjes_recurrence)

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
# most nodes of a grid slice: node-grid sums add per-slice dots in node order,
# and dots this long gave the same bits at 1 and 2 BLAS threads where whole-grid
# ones (about 100k nodes) did not (tests/test_cli.py checks verify output)
_SLICE_NODES = 8192
# graded cells of the discretized gg2 tau weight: with 24 its rule's moments were
# 3e-13 off mpmath's, with 28 4e-14, and from 31 on nodes round onto 1/2, which
# graded_rule refuses
_GG2_TAU_CELLS = 28


def build_basis(N: int, degree: int) -> list[tuple[int, ...]]:
    """Monomial exponent vectors over x_1..x_{N-1}, graded lexicographic,
    total degree <= degree.  The constraint eliminates x_N."""
    if N < 2:
        raise ValueError("need N >= 2")
    _check_count("degree", degree, 0)
    return [k for total in range(degree + 1) for k in _compositions(total, N - 1)]


def _compositions(total: int, parts: int) -> list[tuple[int, ...]]:
    """Exponent vectors of ``parts`` entries summing to ``total``, lexicographic."""
    if parts == 1:
        return [(total,)]
    return [(first,) + rest for first in range(total + 1)
            for rest in _compositions(total - first, parts - 1)]


def _beta_grid(kernel: ExchangeKernel, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes/weights integrating F against the Beta(gamma, gamma) reversible
    marginal, split at 1/2 (star and kmp)."""
    g = kernel.gamma.gamma
    lognorm = gammaln(g) * 2 - gammaln(2 * g)
    # Beta endpoint weight handled exactly
    u1, w1 = power_rule(0.0, 0.5, g - 1.0, n, True)
    w1 = w1 * (1.0 - u1) ** (g - 1.0) / math.exp(lognorm)
    u2, w2 = power_rule(0.5, 1.0, g - 1.0, n, False)
    w2 = w2 * u2 ** (g - 1.0) / math.exp(lognorm)
    return np.concatenate([u1, u2]), np.concatenate([w1, w2])


@lru_cache(maxsize=1)
def _gg2_tau_rule(n: int) -> tuple[np.ndarray, np.ndarray]:
    """n-node Gauss rule on [0, 1/2] for w(tau) = K(tau / (1 - tau)) / sqrt(1 - tau),
    log-singular at 1/2, from the weight on a graded Gauss-Legendre grid."""
    u, w = graded_rule(0.0, 0.5, "hi", n_per_cell=32, n_cells=_GG2_TAU_CELLS)
    # K(m) as ellipkm1(1 - m): m itself rounds to 1 at the nodes nearest 1/2
    return _read_only(*gauss_rule(u, w * ellipkm1((1.0 - 2.0 * u) / (1.0 - u)) / np.sqrt(1.0 - u), n))


def _pair_rule(kernel: ExchangeKernel, n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(beta rows, alpha rows, weight rows) of a tensor Gauss rule for the
    symmetric joint weight q(alpha, beta) = w_gamma(beta) Lambda_r(beta) p(beta, alpha)
    of stick, gg3 or gg2, exact for alpha^i beta^j with i + j <= 2n - 2.  The
    rows for alpha < beta (stick), beta <= 1/2 (gg3) or alpha + beta <= 1 (gg2)
    come first, then their images under (alpha, beta) -> (1 - alpha, 1 - beta).
    gg2's rows are one node long."""
    if kernel.name == "stick":
        # q = m |alpha - beta|^(m-1); alpha = beta y gives m beta^m (1 - y)^(m-1)
        m = kernel.m
        bu, bw = power_rule(0.0, 1.0, m, n, True)
        y, yw = power_rule(0.0, 1.0, m - 1.0, n, False)
        alpha, weights = bu[:, None] * y, (m * bw)[:, None] * yw
    elif kernel.name == "gg3":
        # q = 2 sqrt(2/pi) sqrt(min(alpha, 1 - alpha, beta, 1 - beta)): sqrt(beta) on
        # [beta, 1 - beta], below it alpha = beta y gives sqrt(beta) beta sqrt(y),
        # and the mirror image above
        bu, bw = power_rule(0.0, 0.5, 0.5, n, True)
        y, yw = power_rule(0.0, 1.0, 0.5, n, True)
        mu, mw = legendre_rule(bu, 1.0 - bu, n)
        lo, side = bu[:, None] * y, bu[:, None] * yw
        alpha = np.concatenate([lo, mu, 1.0 - lo], axis=1)
        weights = (2.0 * math.sqrt(2.0 / math.pi) * bw)[:, None] * np.concatenate([side, mw, side], axis=1)
    else:
        # on alpha <= min(beta, 1 - beta), q = c (1 - beta)^(-1/2) K(alpha / (1 - beta)):
        # alpha = r tau and beta = 1 - r (1 - tau) give c r^(1/2) dr w(tau) dtau; with its
        # image under (beta, alpha) the triangle tiles alpha + beta <= 1
        r, rw = power_rule(0.0, 1.0, 0.5, n, True)
        t, tw = _gg2_tau_rule(n)
        lo, hi = (r[:, None] * t).ravel(), 1.0 - (r[:, None] * (1.0 - t)).ravel()
        w = (_GG2_PREF * rw[:, None] * tw).ravel()
        bu, alpha = np.concatenate([hi, lo]), np.concatenate([lo, hi])[:, None]
        weights = np.concatenate([w, w])[:, None]
    return (np.concatenate([bu, 1.0 - bu]), np.concatenate([alpha, 1.0 - alpha]),
            np.concatenate([weights, weights]))


class KernelIntegrals:
    """The (beta, alpha) node grid of a kernel: positive weights w_n with
    sum_n w_n F(alpha_n, beta_n) = E_beta[Lambda_r(beta) int P(beta, dalpha) F(alpha, beta)]
    for beta ~ Beta(gamma, gamma).

    Row-wise: ``beta_rows`` holds the beta node of each row, and the flat,
    C-contiguous ``alpha_nodes`` and ``node_weights`` hold one equal-length row
    per entry of ``beta_rows``.  stick, gg3 and gg2 take ``_pair_rule`` at _N_BETA + 1 nodes
    per axis, whatever the degree, so every degree reads the same nodes; gg2's
    beta varies node by node, so its rows are one node long.  The star family
    takes ``_beta_grid`` times its ``alpha_rule``, 96 rows of 48 nodes."""

    def __init__(self, kernel: ExchangeKernel):
        if kernel.name in ("stick", "gg3", "gg2"):
            self.beta_rows, alpha, weights = _pair_rule(kernel, _N_BETA + 1)
        else:
            self.beta_rows, bw = _beta_grid(kernel, _N_BETA)
            alpha, aw = kernel.alpha_rule(self.beta_rows)
            weights = (bw * kernel.rate_r(self.beta_rows))[:, None] * aw
        self.alpha_nodes, self.node_weights = alpha.ravel(), weights.ravel()

    def slices(self):
        """(beta rows, alpha nodes, square roots of the node weights) of
        consecutive slices of whole rows, at most _SLICE_NODES nodes each (one
        row where a row is longer), in node order; the alpha nodes are a view
        of ``alpha_nodes``."""
        n = self.alpha_nodes.size // self.beta_rows.size
        rows = max(1, _SLICE_NODES // n)
        for lo in range(0, self.beta_rows.size, rows):
            nodes = slice(lo * n, (lo + rows) * n)
            yield self.beta_rows[lo:lo + rows], self.alpha_nodes[nodes], np.sqrt(self.node_weights[nodes])


def _kernel_matrix(kernel: ExchangeKernel, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """I[u, v] = E_beta[Lambda_r(beta) int P(beta, dalpha)
    (g_u(alpha) - g_u(beta)) (g_v(alpha) - g_v(beta))] with g_u(x) = x^a_u (1-x)^b_u.

    The star family has the exact covariance form.  For the mechanical kernels
    it is V V^T over the weighted per-pair difference vectors on the node grid,
    so it is PSD by construction.  V is built for one grid slice at a time, and
    I[u, v] sums the slices' dot products in node order: unlike a matrix
    product, whose blocking depends on the number of pairs, each entry is then
    the same at every degree.
    """
    # built for the star family too, though its closed form reads no grid:
    # perfbench's alpha_rule metrics and quadrature-cache hit ratios need rule
    # calls on every workload, and its smoke mc-relax round assembles kmp alone
    # (ROADMAP item 3)
    grid = KernelIntegrals(kernel)
    if kernel.name in ("star", "kmp"):
        g = kernel.gamma
        mom = pair_alpha_moment(g, a, b)
        return 2.0 * (pair_alpha_moment(g, a[:, None] + a, b[:, None] + b) - np.outer(mom, mom))
    x, y = a.tolist(), b.tolist()
    I = np.zeros((a.size, a.size))
    for bu, al, sqw in grid.slices():
        # V[u] = al^x (1-al)^y: each distinct power is taken once and multiplied
        # into the rows that use it, one power row live at a time
        V = np.empty((a.size, al.size))
        om = 1.0 - al
        for e in set(y):
            V[b == e] = om ** e
        for e in set(x):
            p = al ** e
            for u in np.flatnonzero(a == e):
                V[u] *= p
        # minus g_u(beta), taken once per beta row, one basis row at a time (a
        # (pairs, beta rows) table is as large as V on gg2's one-node rows), then
        # weighted; indexing V[u] keeps no view of V alive past the del below
        for u, (xu, yu) in enumerate(zip(x, y)):
            V[u].reshape(bu.size, -1)[...] -= (bu ** xu * (1.0 - bu) ** yu)[:, None]
        V *= sqw
        for u, v in itertools.combinations_with_replacement(range(a.size), 2):
            I[u, v] = I[v, u] = I[u, v] + np.dot(V[u], V[v])
        del V  # before the next slice's V is allocated
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
    I vanishes for c < 2, so A needs E[v^(m+c)] for c >= 2 only: at N > 2 a
    kernel with m + 2 gamma <= -2 is refused, its moments being infinite, and
    so is m + 2 gamma = 0 or -1, where a c < 2 moment meets a Gamma pole.
    """
    check_reversible_law(kernel, law)
    N, E = law.sites, law.mean_energy
    g, m = law.gamma.gamma, kernel.m
    if N > 2 and (m + 2 * g <= -2 or m + 2 * g in (0, -1)):
        raise ValueError(f"m = {m:g} with gamma = {g:g} at N = {N}: the Galerkin moments "
                         f"need m + 2 gamma > -2 and not 0 or -1")
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
    _check_count("Galerkin degree", degree, 1)
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
    over polynomials f of the given degree (1 to 47), mu = Beta(gamma, gamma).

    Worked in the basis orthonormal w.r.t. mu (Gram = identity), so high
    degrees stay well conditioned.  The basis is evaluated on the alpha nodes
    and on the distinct beta rows of one grid slice at a time, the difference
    vectors are formed in place in the alpha values, and their products are
    summed over the slices in node order, so one (degree + 1, slice nodes)
    table is live.
    """
    _check_count("two-site degree", degree, 1)
    if degree > _N_BETA - 1:
        # the beta rules integrate products of two basis polynomials exactly
        # only up to this degree; past it the value is silently wrong
        raise ValueError(f"two-site degree must be between 1 and {_N_BETA - 1}, got {degree}")
    grid = KernelIntegrals(kernel)
    g = kernel.gamma.gamma
    u, w = beta_rule(g, g, 4 * (degree + 2))
    ra, rb = stieltjes_recurrence(u, w, degree)
    S = np.zeros((degree, degree))
    for bu, al, sqw in grid.slices():
        # phi(alpha) - phi(beta) in place in rows 1.. of the alpha values,
        # phi(beta) taken once per beta row
        diff = orthonormal_values(ra, rb, al)[1:]
        diff.reshape(degree, bu.size, -1)[...] -= orthonormal_values(ra, rb, bu)[1:, :, None]
        diff *= sqw
        S += diff @ diff.T
        del diff  # before the next slice's values are allocated
    A = 0.5 * S
    return float(eigvalsh(0.5 * (A + A.T))[0])


_KAPPA_COND_LIMIT = 1e14  # degree-8 monomial Gram matrices reach cond ~3e12
_KAPPA_ENERGY = 1.0 / 3.0  # the definition of kappa_m fixes the mean energy


def _three_site_gap(topology: str, m: float, gamma: float, degree: int) -> float:
    law = SimplexLaw(GammaShape(gamma), _KAPPA_ENERGY, 3)
    return spectral_gap(law, star_kernel(m, GammaShape(gamma)), degree, topology,
                        cond_limit=_KAPPA_COND_LIMIT).value


def kappa(m: float, gamma: float, degree: int = 8) -> float:
    """kappa_m: nearest-neighbor three-site gap of the star-m chain at E = 1/3."""
    return _three_site_gap(NEAREST, m, gamma, degree)


def kappa_tilde(m: float, gamma: float, degree: int = 8) -> float:
    """kappa~_m: long-range three-site gap of the star-m model at E = 1/3."""
    return _three_site_gap(LONG_RANGE, m, gamma, degree)
