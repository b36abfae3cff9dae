"""Quadrature helpers shared by the kernel and variational modules.

Every rule maps a Gauss reference rule on [-1, 1] affinely.  ``legendre_rule``
also takes arrays of interval ends, one row of nodes and weights per interval,
each entry taking the operations of the one-interval map."""

from __future__ import annotations

from functools import lru_cache

import numpy as np
from scipy.linalg import eigh_tridiagonal
from scipy.special import roots_jacobi


def _read_only(*arrays: np.ndarray) -> tuple[np.ndarray, ...]:
    """Lock the arrays a cached rule hands out, so that no caller can write
    into the copy every later call shares."""
    for a in arrays:
        a.flags.writeable = False
    return arrays


# The reference rules on [-1, 1] depend only on (n, exponents); a handful of
# those pairs serve every interval, so each is computed once and mapped.
@lru_cache(maxsize=64)
def _legendre_reference(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on [-1, 1]."""
    return _read_only(*np.polynomial.legendre.leggauss(n))


@lru_cache(maxsize=64)
def _jacobi_reference(n: int, a: float, b: float) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Jacobi nodes and weights on [-1, 1] for the weight (1-t)^a (1+t)^b."""
    return _read_only(*roots_jacobi(n, a, b))


@lru_cache(maxsize=256)
def beta_rule(p: float, q: float, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes/weights on [0,1] integrating f against the Beta(p, q) probability density.

    sum w_i f(u_i) == E_{Beta(p,q)}[f] exactly for polynomials of degree < 2n.
    """
    # weight (1-t)^a (1+t)^b on [-1,1]; u = (1+t)/2 gives u^b (1-u)^a
    x, w = roots_jacobi(n, q - 1.0, p - 1.0)
    u = 0.5 * (1.0 + x)
    w = w / w.sum()
    return _read_only(u, w)


@lru_cache(maxsize=256)
def power_rule(lo: float, hi: float, expo: float, n: int, at_lo: bool) -> tuple[np.ndarray, np.ndarray]:
    """Rule for integral over [lo, hi] of |u - s|^expo * f(u) du, singular endpoint s at lo or hi.

    Returns nodes u_i and weights w_i with sum w_i f(u_i) = integral (weight included), cached.
    """
    h = hi - lo
    # weight (u-lo)^expo: u = lo + h*(1+t)/2, weight ~ (1+t)^expo; (hi-u)^expo ~ (1-t)^expo
    x, w = _jacobi_reference(n, 0.0, expo) if at_lo else _jacobi_reference(n, expo, 0.0)
    # roots_jacobi weights integrate (1-t)^a (1+t)^b on [-1,1]; after the affine
    # map the Jacobian is h/2 and the weight picks up (h/2)^expo (C pow on floats:
    # numpy's array ** can differ from it in the last bit)
    return _read_only(lo + h * 0.5 * (1.0 + x), w * (h / 2.0) ** (expo + 1.0))


def legendre_rule(lo, hi, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Plain Gauss-Legendre rule on [lo, hi]; array ends give one row per
    interval, of shape lo.shape + (n,)."""
    x, w = _legendre_reference(n)
    lo, hi = np.asarray(lo, dtype=float)[..., None], np.asarray(hi, dtype=float)[..., None]
    u = lo + (hi - lo) * 0.5 * (1.0 + x)
    return u, w * (hi - lo) * 0.5


def stieltjes_recurrence(nodes: np.ndarray, weights: np.ndarray, degree: int) -> tuple[np.ndarray, np.ndarray]:
    """Three-term recurrence coefficients (a_k, b_k) of the orthonormal
    polynomials of the discrete measure sum w_i delta(u_i), by the Stieltjes
    procedure:  u p_k = b_{k+1} p_{k+1} + a_k p_k + b_k p_{k-1}."""
    n = degree + 1
    a = np.zeros(n)
    b = np.zeros(n)  # b[0] unused
    p_prev = np.zeros_like(nodes)
    p = np.ones_like(nodes) / np.sqrt(weights.sum())
    for k in range(n):
        a[k] = np.sum(weights * nodes * p * p)
        if k == n - 1:
            break
        q = (nodes - a[k]) * p - (b[k] if k > 0 else 0.0) * p_prev
        b[k + 1] = np.sqrt(np.sum(weights * q * q))
        p_prev, p = p, q / b[k + 1]
    return a, b


def gauss_rule(nodes: np.ndarray, weights: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """n-node Gauss rule of the discrete measure sum w_i delta(u_i): the
    eigenvalues of its Jacobi matrix, and mu_0 v_0^2 from their eigenvectors
    (Golub & Welsch 1969)."""
    a, b = stieltjes_recurrence(nodes, weights, n - 1)
    x, v = eigh_tridiagonal(a, b[1:])
    return x, weights.sum() * v[0] ** 2


def orthonormal_values(a: np.ndarray, b: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Evaluate the orthonormal polynomials p_0..p_{len(a)-1} defined by the
    recurrence (a, b) at the given points; shape (len(a), len(points))."""
    points = np.asarray(points, dtype=float)
    n = a.size
    out = np.empty((n, points.size))
    out[0] = 1.0
    if n > 1:
        np.subtract(points, a[0], out=out[1])
        out[1] /= b[1]
    # in place, in the order of ((points - a_k) p_k - b_k p_{k-1}) / b_{k+1}
    prev = np.empty(points.size)
    for k in range(1, n - 1):
        row = np.subtract(points, a[k], out=out[k + 1])
        row *= out[k]
        row -= np.multiply(b[k], out[k - 1], out=prev)
        row /= b[k + 1]
    return out


def graded_rule(lo: float, hi: float, singular_at: str, n_per_cell: int = 24,
                n_cells: int = 14, ratio: float = 0.35) -> tuple[np.ndarray, np.ndarray]:
    """Composite Gauss-Legendre on [lo, hi] with cells geometrically refined toward
    singular endpoints.

    Handles integrable log/power singularities at lo and/or hi ('lo', 'hi', 'both').
    Raises ValueError where the cells are so deep that a node rounds onto an end
    or two nodes coincide.
    """
    h = hi - lo
    steps = np.array([ratio ** k for k in range(1, n_cells)])
    pts = [[lo, hi]]
    if singular_at in ("lo", "both"):
        d = h if singular_at == "lo" else h / 2.0
        pts.append(lo + d * steps)
    if singular_at in ("hi", "both"):
        d = h if singular_at == "hi" else h / 2.0
        pts.append(hi - d * steps)
    pts = np.sort(np.concatenate(pts))
    u, w = legendre_rule(pts[:-1], pts[1:], n_per_cell)
    u, w = u.ravel(), w.ravel()
    if not (lo < u[0] and u[-1] < hi and np.all(u[1:] > u[:-1])):
        raise ValueError(f"graded rule on [{lo!r}, {hi!r}] with n_cells = {n_cells}: "
                         f"nodes round onto an end or onto each other")
    return u, w
