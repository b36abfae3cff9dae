"""Sharp three-site analysis of the long-range star chain with m = 1.

On the total-energy-1 simplex with three sites, the mean-zero test space
splits along symmetrized Jacobi polynomials into two one-parameter families,
each governed by a symmetric tridiagonal quadratic form.  Writing S for the
larger of the two spectral suprema,

    kappa~_1 = (1/3) (2 - S),

so an upper bound on S yields a lower bound on kappa~_1, and S < 1 is
exactly kappa~_1 > 1/3.  The coefficients take an int n or an integer array of
n: one call gives a sequence, with C exp per element, equal to the scalar calls.

The module provides two versions of the off-diagonal coefficient sequence:

* ``q_n`` -- the true constant, q_n = (J_{n,n}/J_{n+1,n+1}) sqrt(E[J_{n+1}^2]
  / E[J_n^2]) under mu = Beta(gamma, 2 gamma), in simplified closed form.  It
  satisfies |q_n| -> 1/4, so the tridiagonal suprema tend to 1 and the
  three-site constant is kappa~_1 = 1/3 exactly (an infimum, not attained).
  This version agrees to machine precision with the independent quadrature
  route (``nu_quadrature``, ``p_quadrature``, ``q_quadrature``), which reads
  nu_n, p_n and q_n off the orthonormal polynomials of mu that the Stieltjes
  procedure of ``quad`` builds on a Gauss rule, and with the polynomial
  Galerkin solver on matching truncations.

* ``q_cert`` -- the decayed surrogate |q_cert_n| = |q_n| / sqrt(n + 2 gamma),
  which is the sequence the diagonal-dominance certificate machinery
  (``certificate_alphas`` / ``certificate_betas``, the tail estimates, and the
  monotonicity fact suite) is designed around: it decays like 1/(4 sqrt(n)),
  making the certificate expressions converge to 1/2 and the sups strictly
  less than 1.  Because |q_cert_n| < |q_n|, those certificates do *not*
  transfer to the true constant; ``kappa_tilde_1_bracket`` therefore raises
  ``BracketInversionError`` when its certificate lower bound exceeds the
  Galerkin upper bound, instead of reporting an unsound bracket.
"""

from __future__ import annotations

import bisect
import functools
import math
import operator
from dataclasses import dataclass

import numpy as np
from scipy.linalg import eigvalsh_tridiagonal
from scipy.special import gammaln

from .galerkin import kappa_tilde
from .measures import _check_count, _check_positive
from .quad import beta_rule, orthonormal_values, stieltjes_recurrence

__all__ = [
    "nu_n",
    "p_n",
    "q_n",
    "q_cert",
    "nu_quadrature",
    "p_quadrature",
    "q_quadrature",
    "verify_conditional_eigenrelation",
    "family_tridiagonal",
    "tridiagonal_sup",
    "SupBracket",
    "kappa_tilde_1_bracket",
    "KappaBracket",
    "BracketInversionError",
    "certificate_alphas",
    "certificate_betas",
    "certificate_expressions",
    "verify_prop_a",
    "verify_prop_b",
    "verify_certificates",
    "monotonicity_report",
    "run_checks",
]


# ---------------------------------------------------------------------------
# closed-form coefficients

def _over_n(formula):
    """Let a coefficient formula take an int n (giving a float) or an integer
    array, each n >= 0, and a positive finite gamma."""

    @functools.wraps(formula)
    def coefficient(n, gamma: float):
        _check_positive("gamma", gamma)
        if isinstance(n, np.ndarray):
            if n.dtype.kind not in "iu":
                raise TypeError(f"n must have an integer dtype, got {n.dtype}")
            n = n.astype(np.int64, copy=False)  # 2 * n wraps in int8
            if (n < 0).any():
                raise ValueError("n must be nonnegative")
            return formula(n, gamma)
        if operator.index(n) < 0:
            raise ValueError("n must be nonnegative")
        return float(formula(operator.index(n), gamma))
    return coefficient


@_over_n
def nu_n(n, gamma: float):
    """Conditional-expectation eigenvalue: E[J_n(x_i) | x_j] = nu_n J_n(x_j)."""
    log = gammaln(2 * gamma) + gammaln(n + gamma) - gammaln(gamma) - gammaln(n + 2 * gamma)
    # C exp, one element at a time: numpy's array exp can differ from it in the last bit
    mag = np.reshape([math.exp(v) for v in np.ravel(log).tolist()], np.shape(n))
    return np.where(n == 0, 1.0, (-1.0) ** n * mag)


@_over_n
def p_n(n, gamma: float):
    """Diagonal coefficient: E_mu[(1-u) J_n^2] / E_mu[J_n^2], mu = Beta(gamma, 2 gamma)."""
    return 0.5 + (1.5 * gamma * gamma - gamma) / ((2 * n + 3 * gamma) * (2 * n + 3 * gamma - 2))


@_over_n
def q_n(n, gamma: float):
    """Off-diagonal coefficient (J_{n,n}/J_{n+1,n+1}) sqrt(E[J_{n+1}^2]/E[J_n^2]);
    always negative, |q_n| increasing to 1/4."""
    g3 = 3 * gamma
    return -(1.0 / (2 * n + g3)) * np.sqrt(
        (n + g3 - 1) * (n + 1) * (n + gamma) * (n + 2 * gamma)
        / ((2 * n + g3 + 1) * (2 * n + g3 - 1))
    )


@_over_n
def q_cert(n, gamma: float):
    """Decayed surrogate |q_n| / sqrt(n + 2 gamma) ~ 1/(4 sqrt(n)) used by the
    certificate sequences, tail bounds and the monotonicity fact suite."""
    return q_n(n, gamma) / np.sqrt(n + 2 * gamma)


# ---------------------------------------------------------------------------
# independent route: the orthonormal polynomials P_n of mu by the Stieltjes
# procedure on a Gauss rule.  J_n = c_n P_n with sign(c_n) = (-1)^n, so the
# normalization cancels in nu_n and p_n, and q_n = -b_{n+1}.

_MU_NODES = 120  # Gauss nodes of the mu and Beta(gamma, gamma) rules


def _mu_recurrence(gamma: float, degree: int):
    """Nodes, weights and recurrence (a, b) of P_0..P_degree for mu = Beta(gamma, 2 gamma)."""
    u, w = beta_rule(gamma, 2 * gamma, _MU_NODES)
    return (u, w) + stieltjes_recurrence(u, w, degree)


def _conditional_means(gamma: float, a: np.ndarray, b: np.ndarray, xs: np.ndarray) -> np.ndarray:
    """E[P_n((1 - x) t)] for each x in xs, t ~ Beta(gamma, gamma), n = a.size - 1."""
    t, v = beta_rule(gamma, gamma, _MU_NODES)
    pn = orthonormal_values(a, b, np.outer(1.0 - xs, t).ravel())[-1]
    return pn.reshape(xs.size, t.size) @ v


def nu_quadrature(n: int, gamma: float) -> float:
    """nu_n from the conditional eigenrelation by double quadrature:
    E[P_n(x_i) P_n(x_j)] = nu_n E[P_n^2], with x_i | x_j = (1 - x_j) t."""
    u, w, a, b = _mu_recurrence(gamma, n)
    pn = orthonormal_values(a, b, u)[-1]
    return float(np.sum(w * pn * _conditional_means(gamma, a, b, u)) / np.sum(w * pn * pn))


def p_quadrature(n: int, gamma: float) -> float:
    """p_n = E_mu[(1-u) P_n^2] = 1 - a_n."""
    return float(1.0 - _mu_recurrence(gamma, n)[2][n])


def q_quadrature(n: int, gamma: float) -> float:
    """q_n = -b_{n+1}: the leading-coefficient ratio of P_n to P_{n+1}, signed
    by the alternating leading coefficients of J_n."""
    return float(-_mu_recurrence(gamma, n + 1)[3][n + 1])


def verify_conditional_eigenrelation(gamma: float, n: int) -> float:
    """Max over a grid of x_j of |E[P_n((1-x_j) t)] - nu_n P_n(x_j)| with
    t ~ Beta(gamma, gamma)."""
    _, _, a, b = _mu_recurrence(gamma, n)
    xs = np.linspace(0.02, 0.98, 41)
    lhs = _conditional_means(gamma, a, b, xs)
    return float(np.max(np.abs(lhs - nu_n(n, gamma) * orthonormal_values(a, b, xs)[-1])))


# ---------------------------------------------------------------------------
# tridiagonal families and their spectral suprema

def _c(family: str, k: np.ndarray, gamma: float) -> np.ndarray:
    """Row weights c_k: 1 + 2 nu_k in family A, 1 - nu_k in family B."""
    return 1.0 + 2.0 * nu_n(k, gamma) if family == "A" else 1.0 - nu_n(k, gamma)


def family_tridiagonal(family: str, gamma: float, n_max: int,
                       exact: bool = False) -> tuple[np.ndarray, np.ndarray]:
    """Head block of the family-A (k = 2..n_max) or family-B (k = 1..n_max)
    tridiagonal form: diagonal c_k p_k, off-diagonal sqrt(c_k c_{k+1}) |q_k|
    with c_k = 1 + 2 nu_k (A) or 1 - nu_k (B).  With ``exact`` the true q_n
    is used (the head supremum then reproduces the polynomial Galerkin value
    at matching degree); default is the certificate surrogate q_cert."""
    if family not in ("A", "B"):
        raise ValueError("family must be 'A' or 'B'")
    _check_count("n_max", n_max, 2 if family == "A" else 1)  # a head of one row or more
    qfun = q_n if exact else q_cert
    ks = np.arange(2 if family == "A" else 1, n_max + 1)
    c = _c(family, ks, gamma)
    diag = c * p_n(ks, gamma)
    off = np.sqrt(c[:-1] * c[1:]) * np.abs(qfun(ks[:-1], gamma))
    return diag, off


def _lambda_max(diag: np.ndarray, off: np.ndarray) -> float:
    """Largest eigenvalue of the symmetric tridiagonal (diag, off), by LAPACK
    bisection on that one eigenvalue."""
    n = diag.size
    return float(eigvalsh_tridiagonal(diag, off, select="i", select_range=(n - 1, n - 1))[0])


def _tail_bound(family: str, gamma: float, t: int) -> float:
    """Upper bound on sup_k >= t of the Gershgorin row sum of the infinite
    tail in the certificate coefficients, using monotonicity of |nu|, p and
    |q_cert|: |nu_k| decreases in k; |q_cert_k| decreases for k >= 2 and obeys
    |q_cert_k| <= 1/(4 sqrt(k + gamma)) for gamma >= 1/5; p_k is decreasing
    for gamma >= 2/3 and bounded by 1/2 below 2/3."""
    c_bound = 1.0 + (2.0 if family == "A" else 1.0) * abs(nu_n(t, gamma))
    if gamma >= 2.0 / 3.0:
        p_bound = p_n(t, gamma)
    else:
        p_bound = 0.5
    q_prev = abs(q_cert(t - 1, gamma))
    if gamma >= 0.2:
        q_prev = min(q_prev, 1.0 / (4.0 * math.sqrt(t - 1 + gamma)))
    return c_bound * p_bound + c_bound * 2.0 * q_prev


@dataclass(frozen=True)
class SupBracket:
    """lower <= S <= upper for the family form: lower is the head block's
    lambda_max, upper the certified sup bound."""

    lower: float
    tail_bound: float
    upper: float
    n_max: int

    @property
    def width(self) -> float:
        return self.upper - self.lower


def tridiagonal_sup(family: str, gamma: float, n_max: int = 200) -> SupBracket:
    """Two-sided bracket on the spectral supremum S of the infinite family in
    the certificate coefficients.

    Lower bound: lambda_max of the head block (principal submatrices increase
    to S).  Upper bound: split head/tail at n_max; the coupling entry e is
    absorbed as 2 e x y <= e (tau x^2 + y^2 / tau), giving
    S <= max(lambda_max(head + e tau E_last), tail_gershgorin + e / tau)
    for every tau > 0, minimized over a 121-point geometric tau grid.  With
    e >= 0 the head term is nondecreasing in tau (a positive semidefinite
    rank-one increase, by Weyl's inequality) and the tail term decreases, so
    the grid minimum sits at their crossing: bisection on the grid index
    finds it in at most 7 head eigenvalues.
    """
    _check_count("n_max", n_max, 1 if family == "A" else 0)
    diag, off = family_tridiagonal(family, gamma, n_max + 1)
    if off.size == 0:
        raise ValueError(f"n_max = {n_max} leaves family {family} no head row")
    e = off[-1]  # couples head row n_max to tail row n_max + 1
    diag, off = diag[:-1], off[:-1]
    lower = _lambda_max(diag, off)
    tail0 = _tail_bound(family, gamma, n_max + 1)
    taus = np.geomspace(1e-3, 1e3, 121)
    tails = tail0 + e / taus

    @functools.cache
    def head(i: int) -> float:
        d2 = diag.copy()
        d2[-1] += e * taus[i]
        return _lambda_max(d2, off)

    # first index where head reaches tail; bisection has cached k - 1 and k
    k = bisect.bisect_left(range(taus.size), True, key=lambda i: head(i) >= tails[i])
    best = min(max(head(i), tails[i]) for i in (k - 1, k) if 0 <= i < taus.size)
    return SupBracket(lower=lower, tail_bound=tail0, upper=float(best), n_max=n_max)


class BracketInversionError(RuntimeError):
    """Certificate lower bound exceeds the variational upper bound; the
    certificate coefficients do not bound the true constant."""


@dataclass(frozen=True)
class KappaBracket:
    lower: float
    upper: float
    gamma: float
    n_max: int
    degree: int
    family_a: SupBracket
    family_b: SupBracket

    @property
    def width(self) -> float:
        return self.upper - self.lower

    @property
    def consistent(self) -> bool:
        """lower <= upper up to a rounding slack; false when either side is NaN."""
        return self.lower <= self.upper + 1e-8


def kappa_tilde_1_bracket(gamma: float, n_max: int = 200, degree: int = 8,
                          strict: bool = True) -> KappaBracket:
    """Bracket on kappa~_1: lower = (1/3)(2 - certified sup over both
    certificate families); upper = polynomial Galerkin value at the given
    degree.  Raises BracketInversionError when the bracket is not
    ``consistent`` (which the certificate coefficients do produce; see the
    module docstring), unless ``strict`` is disabled for diagnostic use."""
    sa = tridiagonal_sup("A", gamma, n_max)
    sb = tridiagonal_sup("B", gamma, n_max)
    s_upper = max(sa.upper, sb.upper)
    lower = (2.0 - s_upper) / 3.0
    upper = kappa_tilde(1.0, gamma, degree)
    bracket = KappaBracket(lower=lower, upper=upper, gamma=gamma, n_max=n_max,
                           degree=degree, family_a=sa, family_b=sb)
    if strict and not bracket.consistent:
        raise BracketInversionError(
            f"certificate lower bound {lower:.6f} exceeds Galerkin upper bound "
            f"{upper:.6f} at gamma={gamma}: the certificate q-sequence decays "
            "while the true q_n tends to -1/4, so the certified sup does not "
            "dominate the true supremum"
        )
    return bracket


# ---------------------------------------------------------------------------
# certificate sequences

_DELTA = 1e-3  # strictness perturbation where the textbook choice gives equality


def _alternating_weights(family: str, gamma: float, n0: int, n_max: int) -> np.ndarray:
    """Certificate weights at n = n0..n_max for gamma < 2/3, with
    gap_n = 1/c_n - 1/2: max(|q_n| / gap_n, 1) at n0, max(2 |q_n| / gap_n, 1)
    at the later n of n0's parity, 1 / max(2 |q_n| / gap_{n+1}, 1) between."""
    ns = np.arange(n0, n_max + 1)
    gap = 1.0 / _c(family, np.arange(n0, n_max + 2), gamma) - 0.5
    q = np.where(ns == n0, 1.0, 2.0) * np.abs(q_cert(ns, gamma))
    return np.where(ns % 2 == n0 % 2, np.maximum(q / gap[:-1], 1.0),
                    1.0 / np.maximum(q / gap[1:], 1.0))


def certificate_alphas(gamma: float, n_max: int) -> np.ndarray:
    """Weights alpha_n (index 1..n_max; alpha_1 = 0) for the family-A
    diagonal-dominance certificate, chosen per parameter regime."""
    _check_count("n_max", n_max, 2)
    a = np.ones(n_max + 1)
    a[0] = math.nan
    a[1] = 0.0

    def gap(n):
        return 1.0 / (1.0 + 2.0 * nu_n(n, gamma)) - p_n(n, gamma)
    if gamma < 2.0 / 3.0:
        a[2:] = _alternating_weights("A", gamma, 2, n_max)
    elif gamma <= 2.0:
        # the textbook weights make n = 2 and n = 4 exact equalities; a small
        # perturbation trades the strict slack at n = 3, 5 for strictness there
        a[2] = abs(q_cert(2, gamma)) / gap(2) * (1.0 + _DELTA)
        if n_max >= 3:
            a[3] = gap(4) / (2.0 * abs(q_cert(3, gamma))) * (1.0 - _DELTA)
        if n_max >= 4:
            a[4] = 2.0 * abs(q_cert(4, gamma)) / gap(4) * (1.0 + _DELTA)
    else:
        a[2] = abs(q_cert(2, gamma)) / gap(2) + _DELTA
    return a


def certificate_betas(gamma: float, n_max: int) -> np.ndarray:
    """Weights beta_n (index 0..n_max; beta_0 = 0) for the family-B certificate."""
    _check_count("n_max", n_max, 1)
    b = np.ones(n_max + 1)
    b[0] = 0.0
    if gamma < 2.0 / 3.0:
        b[1:] = _alternating_weights("B", gamma, 1, n_max)
    else:
        eps = 1.0 / (1.0 + 3.0 * gamma)  # midpoint of the admissible (0, 2/(1+3g))
        b[1] = abs(q_cert(1, gamma)) * 3.0 * (3.0 * gamma + 2.0) / (2.0 - eps)
    return b


def certificate_expressions(gamma: float, n_max: int = 200) -> tuple[np.ndarray, np.ndarray]:
    """The two certificate expressions (in the certificate coefficients)
    E_A(n) = (1+2 nu_n)(p_n + |q_n|/alpha_n + |q_{n-1}| alpha_{n-1}),  n >= 2,
    E_B(n) = (1- nu_n)(p_n + |q_n|/beta_n + |q_{n-1}| beta_{n-1}),    n >= 1,
    returned as arrays indexed from n = 2 (A) and n = 1 (B)."""
    a = certificate_alphas(gamma, n_max)
    b = certificate_betas(gamma, n_max)
    ns = np.arange(1, n_max + 1)
    p = p_n(ns, gamma)
    q = np.abs(q_cert(ns, gamma))
    ea = _c("A", ns[1:], gamma) * (p[1:] + q[1:] / a[2:] + q[:-1] * a[1:-1])
    # beta_0 = 0: the n = 1 row has no q_0 term (q_cert(0, 1/3) is 0/0)
    prev = np.concatenate(([0.0], q[:-1] * b[1:-1]))
    eb = _c("B", ns, gamma) * (p + q / b[1:] + prev)
    return ea, eb


def verify_certificates(gamma: float, n_max: int = 200) -> dict:
    """Strict sup < 1 check for both families plus the large-n limit of the
    expressions.  The finite-n expression behaves like 1/2 + O(1/sqrt(n)), so
    the limit is read off by a least-squares fit c0 + c1/sqrt(n) over the tail
    n >= max(20, n_max // 4); with fewer than 3 points there the limit is None."""
    ea, eb = certificate_expressions(gamma, n_max)
    ns = np.arange(1, n_max + 1)
    out = {
        "gamma": gamma,
        "sup_a": float(ea.max()),
        "sup_b": float(eb.max()),
        "ok": bool(ea.max() < 1.0 and eb.max() < 1.0),
    }
    for name, expr, n in (("a", ea, ns[1:]), ("b", eb, ns)):
        tail = n >= max(20, n_max // 4)
        out[f"limit_{name}"] = None  # lstsq would give 0.0 on no rows
        if tail.sum() >= 3:
            X = np.column_stack([np.ones(tail.sum()), 1.0 / np.sqrt(n[tail])])
            coef, *_ = np.linalg.lstsq(X, expr[tail], rcond=None)
            out[f"limit_{name}"] = float(coef[0])
        out[f"raw_tail_{name}"] = float(expr[-1])
    return out


def _prop_report(family: str, gamma: float, n_max: int) -> list[dict]:
    ea, eb = certificate_expressions(gamma, n_max)
    expr, start = (ea, 2) if family == "A" else (eb, 1)
    lemma = "prop:a" if family == "A" else "prop:b"
    return [
        {
            "lemma": lemma,
            "gamma": gamma,
            "n": int(start + i),
            "lhs": float(v),
            "rhs": 1.0,
            "margin": float(1.0 - v),
            "pass": bool(v < 1.0),
        }
        for i, v in enumerate(expr)
    ]


def verify_prop_a(gamma: float, n_max: int = 200) -> list[dict]:
    """Per-n report for the family-A certificate expression < 1."""
    return _prop_report("A", gamma, n_max)


def verify_prop_b(gamma: float, n_max: int = 200) -> list[dict]:
    """Per-n report for the family-B certificate expression < 1."""
    return _prop_report("B", gamma, n_max)


# ---------------------------------------------------------------------------
# monotonicity facts

def monotonicity_report(gammas, n_max: int = 50) -> list[dict]:
    """Check every coefficient monotonicity fact on the given gamma grid,
    each within its stated regime, for the certificate coefficient sequences
    at n = 1..n_max (n_max >= 3).  Returns one record per fact and gamma with
    the number of violations (0 expected)."""
    _check_count("n_max", n_max, 3)
    gammas = sorted(gammas)
    records = []

    def add(fact, gamma, viol):
        records.append({"fact": fact, "gamma": gamma, "violations": int(viol)})

    ns = np.arange(1, n_max + 1)
    seqs = [(g, np.abs(nu_n(ns, g)), p_n(ns, g), np.abs(q_cert(ns, g))) for g in gammas]
    for g, nu, p, q in seqs:
        add("abs_nu_decreasing_in_n", g, np.sum(np.diff(nu) >= 1e-15))
        add("p_positive", g, np.sum(p <= 0))
        if g < 2.0 / 3.0:
            add("p_increasing_below_half", g, np.sum(np.diff(p) <= 0) + np.sum(p >= 0.5))
        elif g == 2.0 / 3.0:
            add("p_equals_half", g, np.sum(np.abs(p - 0.5) > 1e-12))
        else:
            add("p_decreasing", g, np.sum(np.diff(p) >= 0))
        # |q_n| decreasing in n within the stated regimes
        if g <= 2.0:
            add("abs_q_decreasing_from_2", g, np.sum(np.diff(q[1:]) >= 0))
        elif g <= 7.0 / 3.0:
            add("abs_q_decreasing_from_3", g, np.sum(np.diff(q[2:]) >= 0))
        if g >= 0.2:
            add("sqrt_estimate", g, np.sum(q > 1.0 / (4.0 * np.sqrt(ns + g))))
        # ratio fact: (1+2|nu_{n+1}|)(1-2|nu_n|) / ((1-2|nu_{n+1}|)(1+2|nu_n|))
        # is minimized at n = 2, over n = 2..n_max-1
        top = (1 + 2 * nu[2:]) / (1 - 2 * nu[2:])
        ratios = top * ((1 - 2 * nu[1:-1]) / (1 + 2 * nu[1:-1]))
        add("nu_ratio_min_at_2", g, np.sum(ratios < ratios[0] - 1e-14))

    # cross-gamma monotonicity on the sorted grid
    for (g1, nu1, p1, q1), (g2, nu2, p2, q2) in zip(seqs, seqs[1:]):
        add("abs_nu_decreasing_in_gamma", g2, np.any(nu2 > nu1 + 1e-15))
        if g1 >= 1.0 / 3.0:
            add("p_increasing_in_gamma", g2, np.sum(p2 < p1 - 1e-15))
        lo = 1 if g1 >= 0.1 else 2  # from n = 2 for g1 >= 0.1, else from n = 3
        add("abs_q_decreasing_in_gamma", g2, np.sum(q2[lo:] > q1[lo:] + 1e-15))
    return records


# ---------------------------------------------------------------------------
# the appendix claims, as the records of ``gapforge verify --suite appendix``

def run_checks(n_max: int) -> list[dict]:
    """Every appendix claim with its pass threshold, in report order: the
    certificate sups (both below 1, tail limits within 1e-2 of 1/2), the
    per-n propositions at gamma = 1, the monotonicity facts (at n <= 50,
    whatever ``n_max``), and the kappa~_1 brackets (lower above 1/3,
    ``consistent``, width below 5e-3)."""
    records = []
    for g in (1.0 / 3.0, 0.4, 2.0 / 3.0, 1.0, 1.5, 2.0, 3.0):
        cert = verify_certificates(g, n_max=n_max)
        ok = cert["ok"] and all(cert[k] is not None and abs(cert[k] - 0.5) < 1e-2
                                for k in ("limit_a", "limit_b"))
        records.append({"claim": "certificate-sup", "pass": ok, **cert})
    records += verify_prop_a(1.0, n_max=n_max)
    records += verify_prop_b(1.0, n_max=n_max)
    for rec in monotonicity_report((0.2, 1.0 / 3.0, 0.5, 2.0 / 3.0, 1.0, 2.0, 3.0), n_max=50):
        records.append({"claim": rec["fact"], "pass": rec["violations"] == 0, **rec})
    for g in (0.4, 2.0 / 3.0, 1.0, 1.5, 2.0, 3.0):
        bracket = kappa_tilde_1_bracket(g, n_max=n_max, strict=False)
        ok = (bracket.lower > 1.0 / 3.0 and bracket.consistent
              and bracket.width < 5e-3)
        records.append({"claim": "kappa-tilde-bracket", "gamma": g,
                        "lower": bracket.lower, "upper": bracket.upper, "pass": ok})
    return records
