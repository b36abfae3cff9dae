"""Sharp three-site analysis of the long-range star chain with m = 1.

On the total-energy-1 simplex with three sites, the mean-zero test space
splits along symmetrized Jacobi polynomials into two one-parameter families,
each governed by a symmetric tridiagonal quadratic form.  Writing S for the
larger of the two spectral suprema,

    kappa~_1 = (1/3) (2 - S),

so an upper bound on S yields a lower bound on kappa~_1, and S < 1 is
exactly kappa~_1 > 1/3.

The module provides two versions of the off-diagonal coefficient sequence:

* ``q_n`` -- the true constant, q_n = (J_{n,n}/J_{n+1,n+1}) sqrt(E[J_{n+1}^2]
  / E[J_n^2]) under mu = Beta(gamma, 2 gamma), in simplified closed form.  It
  satisfies |q_n| -> 1/4, so the tridiagonal suprema tend to 1 and the
  three-site constant is kappa~_1 = 1/3 exactly (an infimum, not attained).
  This version agrees with the independent quadrature route to machine
  precision and with the polynomial Galerkin solver on matching truncations.

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

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import eigvalsh_tridiagonal
from scipy.special import gammaln

from .galerkin import kappa_tilde
from .quad import beta_rule

__all__ = [
    "nu_n",
    "p_n",
    "q_n",
    "q_cert",
    "jacobi_coefficients",
    "jacobi_values",
    "JacobiBasis",
    "nu_quadrature",
    "p_quadrature",
    "q_quadrature",
    "p_from_coefficients",
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
    "n_zero",
    "monotonicity_report",
]


# ---------------------------------------------------------------------------
# closed-form coefficients

def nu_n(n: int, gamma: float) -> float:
    """Conditional-expectation eigenvalue: E[J_n(x_i) | x_j] = nu_n J_n(x_j)."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    if n == 0:
        return 1.0
    log = gammaln(2 * gamma) + gammaln(n + gamma) - gammaln(gamma) - gammaln(n + 2 * gamma)
    return (-1.0) ** n * math.exp(log)


def p_n(n: int, gamma: float) -> float:
    """Diagonal coefficient: E_mu[(1-u) J_n^2] / E_mu[J_n^2], mu = Beta(gamma, 2 gamma)."""
    return 0.5 + (1.5 * gamma * gamma - gamma) / ((2 * n + 3 * gamma) * (2 * n + 3 * gamma - 2))


def q_n(n: int, gamma: float) -> float:
    """Off-diagonal coefficient (J_{n,n}/J_{n+1,n+1}) sqrt(E[J_{n+1}^2]/E[J_n^2]);
    always negative, |q_n| increasing to 1/4."""
    g3 = 3 * gamma
    return -(1.0 / (2 * n + g3)) * math.sqrt(
        (n + g3 - 1) * (n + 1) * (n + gamma) * (n + 2 * gamma)
        / ((2 * n + g3 + 1) * (2 * n + g3 - 1))
    )


def q_cert(n: int, gamma: float) -> float:
    """Decayed surrogate |q_n| / sqrt(n + 2 gamma) ~ 1/(4 sqrt(n)) used by the
    certificate sequences, tail bounds and the monotonicity fact suite."""
    return q_n(n, gamma) / math.sqrt(n + 2 * gamma)


# ---------------------------------------------------------------------------
# independent route: explicit Jacobi polynomials + Gauss quadrature

def jacobi_coefficients(n: int, gamma: float) -> np.ndarray:
    """Monomial coefficients of J_n on [0, 1] (orthogonal for Beta(gamma, 2 gamma)):

    J_n(u) = Gamma(n+g)/(n! Gamma(n+3g-1)) *
             sum_m (-1)^m C(n,m) Gamma(n+m+3g-1)/Gamma(m+g) u^m
    evaluated with log-Gamma and explicit sign tracking.
    """
    g = gamma
    pref = gammaln(n + g) - gammaln(n + 1) - gammaln(n + 3 * g - 1)
    out = np.empty(n + 1)
    for m in range(n + 1):
        log = (
            pref
            + gammaln(n + 1) - gammaln(m + 1) - gammaln(n - m + 1)
            + gammaln(n + m + 3 * g - 1) - gammaln(m + g)
        )
        out[m] = (-1.0) ** m * math.exp(log)
    return out


def _jacobi_values_recurrence(n: int, gamma: float, u: np.ndarray) -> np.ndarray:
    """J_n via the three-term recurrence of the shifted Jacobi family with
    parameters (a, b) = (2 gamma - 1, gamma - 1) on [0, 1]; numerically stable
    for large n, then rescaled to the explicit normalization (leading
    coefficient Gamma(2n+3g-1) / (n! Gamma(n+3g-1)))."""
    a = 2 * gamma - 1.0
    b = gamma - 1.0
    x = 2.0 * u - 1.0
    p_prev = np.ones_like(x)
    if n == 0:
        return p_prev
    p = 0.5 * ((a + b + 2.0) * x + (a - b))
    for k in range(1, n):
        k2 = 2.0 * k + a + b
        c1 = 2.0 * (k + 1.0) * (k + a + b + 1.0) * k2
        c2 = (k2 + 1.0) * (a * a - b * b)
        c3 = k2 * (k2 + 1.0) * (k2 + 2.0)
        c4 = 2.0 * (k + a) * (k + b) * (k2 + 2.0)
        p, p_prev = ((c2 + c3 * x) * p - c4 * p_prev) / c1, p
    # standard leading coeff of P_n^{(a,b)} in x is 2^-n C(2n+a+b, n); ours in
    # u carries the explicit convention's (-1)^n sign on the leading term
    log_std = gammaln(2 * n + a + b + 1) - gammaln(n + 1) - gammaln(n + a + b + 1)
    log_target = gammaln(2 * n + 3 * gamma - 1) - gammaln(n + 1) - gammaln(n + 3 * gamma - 1)
    return p * (-1.0) ** n * math.exp(log_target - log_std)


def jacobi_values(n: int, gamma: float, u: np.ndarray) -> np.ndarray:
    """J_n evaluated by Horner on the explicit coefficients for small n and by
    the stable three-term recurrence for larger orders (the alternating
    coefficient table cancels catastrophically past n ~ 15)."""
    u = np.asarray(u, dtype=float)
    if n > 12:
        return _jacobi_values_recurrence(n, gamma, u)
    c = jacobi_coefficients(n, gamma)
    out = np.full_like(u, c[-1])
    for m in range(n - 1, -1, -1):
        out = out * u + c[m]
    return out


@dataclass(frozen=True)
class JacobiBasis:
    """Coefficient table of J_0..J_{n_max} for weight Beta(gamma, 2 gamma)."""

    gamma: float
    n_max: int
    coefficients: list = field(default_factory=list)

    @classmethod
    def build(cls, gamma: float, n_max: int) -> "JacobiBasis":
        return cls(gamma, n_max, [jacobi_coefficients(n, gamma) for n in range(n_max + 1)])

    def orthogonality_defect(self, n_nodes: int = 200) -> float:
        u, w = _mu_rule(self.gamma, n_nodes)
        vals = np.array([jacobi_values(n, self.gamma, u) for n in range(self.n_max + 1)])
        gram = (vals * w) @ vals.T
        norms = np.sqrt(np.diag(gram))
        off = gram / np.outer(norms, norms)
        np.fill_diagonal(off, 0.0)
        return float(np.abs(off).max())


def _mu_rule(gamma: float, n_nodes: int):
    return beta_rule(gamma, 2 * gamma, n_nodes)


def nu_quadrature(n: int, gamma: float, n_nodes: int = 120) -> float:
    """nu_n from the conditional eigenrelation by double quadrature:
    E[J_n(x_i) J_n(x_j)] = nu_n E[J_n^2], with x_i | x_j = (1 - x_j) t,
    t ~ Beta(gamma, gamma)."""
    u, w = _mu_rule(gamma, n_nodes)
    t, v = beta_rule(gamma, gamma, n_nodes)
    Jn = jacobi_values(n, gamma, u)
    inner = np.array([np.sum(v * jacobi_values(n, gamma, (1.0 - x) * t)) for x in u])
    return float(np.sum(w * Jn * inner) / np.sum(w * Jn * Jn))


def p_quadrature(n: int, gamma: float, n_nodes: int = 120) -> float:
    u, w = _mu_rule(gamma, n_nodes)
    Jn = jacobi_values(n, gamma, u)
    return float(np.sum(w * (1.0 - u) * Jn * Jn) / np.sum(w * Jn * Jn))


def q_quadrature(n: int, gamma: float, n_nodes: int = 120) -> float:
    """q_n from its definition: leading-coefficient ratio times the quadrature
    norm ratio.  Sign is negative by the theory (|q_n| = -q_n)."""
    u, w = _mu_rule(gamma, n_nodes)
    Jn = jacobi_values(n, gamma, u)
    Jn1 = jacobi_values(n + 1, gamma, u)
    lead = jacobi_coefficients(n, gamma)[-1] / jacobi_coefficients(n + 1, gamma)[-1]
    return float(
        -abs(lead) * math.sqrt(np.sum(w * Jn1 * Jn1) / np.sum(w * Jn * Jn))
    )


def p_from_coefficients(n: int, gamma: float) -> float:
    """p_n = 1 + J_{n+1,n}/J_{n+1,n+1} - J_{n,n-1}/J_{n,n} from the explicit
    coefficient table (independent of the closed form)."""
    cn = jacobi_coefficients(n, gamma)
    cn1 = jacobi_coefficients(n + 1, gamma)
    return float(1.0 + cn1[-2] / cn1[-1] - cn[-2] / cn[-1])


def verify_conditional_eigenrelation(gamma: float, n: int, n_nodes: int = 64,
                                     n_grid: int = 41) -> float:
    """Max over a grid of x_j of |E[J_n((1-x_j) t)] - nu_n J_n(x_j)| with
    t ~ Beta(gamma, gamma)."""
    t, v = beta_rule(gamma, gamma, n_nodes)
    xs = np.linspace(0.02, 0.98, n_grid)
    nu = nu_n(n, gamma)
    defect = 0.0
    for x in xs:
        lhs = np.sum(v * jacobi_values(n, gamma, (1.0 - x) * t))
        defect = max(defect, abs(lhs - nu * jacobi_values(n, gamma, np.array([x]))[0]))
    return float(defect)


# ---------------------------------------------------------------------------
# tridiagonal families and their spectral suprema

def _c(family: str, k: int, gamma: float) -> float:
    """Row weight c_k: 1 + 2 nu_k in family A, 1 - nu_k in family B."""
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
    qfun = q_n if exact else q_cert
    ks = np.arange(2 if family == "A" else 1, n_max + 1)
    c = np.array([_c(family, int(k), gamma) for k in ks])
    diag = c * np.array([p_n(int(k), gamma) for k in ks])
    q = np.array([abs(qfun(int(k), gamma)) for k in ks[:-1]])
    off = np.sqrt(c[:-1] * c[1:]) * q
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
    """truncated_max_eig <= S <= certified_sup_upper for the family form."""

    truncated_max_eig: float
    tail_bound: float
    certified_sup_upper: float
    n_max: int

    @property
    def lower(self) -> float:
        return self.truncated_max_eig

    @property
    def upper(self) -> float:
        return self.certified_sup_upper

    @property
    def width(self) -> float:
        return self.upper - self.lower


def tridiagonal_sup(family: str, gamma: float, n_max: int = 200,
                    exact: bool = False) -> SupBracket:
    """Two-sided bracket on the spectral supremum S of the infinite family.

    Lower bound: lambda_max of the head block (principal submatrices increase
    to S).  Upper bound: split head/tail at n_max; the coupling entry e is
    absorbed as 2 e x y <= e (tau x^2 + y^2 / tau), giving
    S <= max(lambda_max(head + e tau E_last), tail_gershgorin + e / tau),
    minimized over tau.  The tail estimate is only available for the
    certificate coefficients; with ``exact`` the tail rows approach Gershgorin
    radius 1 and the certified upper bound is reported accordingly.
    """
    diag, off = family_tridiagonal(family, gamma, n_max + 1, exact=exact)
    if off.size == 0:
        raise ValueError(f"n_max = {n_max} leaves family {family} no head row")
    e = off[-1]  # couples head row n_max to tail row n_max + 1
    diag, off = diag[:-1], off[:-1]
    lower = _lambda_max(diag, off)
    if exact:
        # |q_k| -> 1/4 and p_k -> 1/2: tail Gershgorin rows approach 1 and for
        # alternating-sign nu they exceed it; bound rows directly over a long
        # window and cap with the worst observed value plus the limit row.
        c = {k: _c(family, k, gamma) for k in range(n_max, 20 * n_max + 1)}
        rows = [c[k] * p_n(k, gamma) + abs(q_n(k, gamma)) * math.sqrt(abs(c[k] * c[k + 1]))
                + abs(q_n(k - 1, gamma)) * math.sqrt(abs(c[k - 1] * c[k]))
                for k in range(n_max + 1, 20 * n_max)]
        tail0 = max(max(rows), 1.0)
    else:
        tail0 = _tail_bound(family, gamma, n_max + 1)
    best = math.inf
    for tau in np.geomspace(1e-3, 1e3, 121):
        d2 = diag.copy()
        d2[-1] += e * tau
        head = _lambda_max(d2, off)
        cand = max(head, tail0 + e / tau)
        best = min(best, cand)
    return SupBracket(truncated_max_eig=lower, tail_bound=tail0,
                      certified_sup_upper=best, n_max=n_max)


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


def kappa_tilde_1_bracket(gamma: float, n_max: int = 200, degree: int = 8,
                          strict: bool = True) -> KappaBracket:
    """Bracket on kappa~_1: lower = (1/3)(2 - certified sup over both
    certificate families); upper = polynomial Galerkin value at the given
    degree.  Raises BracketInversionError when lower > upper + 1e-8 (which the
    certificate coefficients do produce; see the module docstring), unless
    ``strict`` is disabled for diagnostic use."""
    sa = tridiagonal_sup("A", gamma, n_max)
    sb = tridiagonal_sup("B", gamma, n_max)
    s_upper = max(sa.certified_sup_upper, sb.certified_sup_upper)
    lower = (2.0 - s_upper) / 3.0
    upper = kappa_tilde(1.0, gamma, degree)
    bracket = KappaBracket(lower=lower, upper=upper, gamma=gamma, n_max=n_max,
                           degree=degree, family_a=sa, family_b=sb)
    if strict and lower > upper + 1e-8:
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


def n_zero(gamma: float, n_cap: int = 10_000) -> int:
    """Smallest n0 with |q_cert_n| (1/(1+2|nu_n|) - 1/2)^(-1) < 1/2 for all
    n >= n0 (verified up to n_cap; the quantity is eventually decreasing to 0)."""
    n0 = None
    for n in range(2, n_cap + 1):
        val = abs(q_cert(n, gamma)) / (1.0 / (1.0 + 2.0 * abs(nu_n(n, gamma))) - 0.5)
        if val < 0.5:
            if n0 is None:
                n0 = n
        else:
            n0 = None
    if n0 is None:
        raise RuntimeError("n0 not found below cap")
    return n0


def certificate_alphas(gamma: float, n_max: int) -> np.ndarray:
    """Weights alpha_n (index 1..n_max; alpha_1 = 0) for the family-A
    diagonal-dominance certificate, chosen per parameter regime."""
    a = np.ones(n_max + 1)
    a[0] = math.nan
    a[1] = 0.0
    if gamma < 2.0 / 3.0:
        for n in range(2, n_max + 1):
            gap = 1.0 / (1.0 + 2.0 * nu_n(n, gamma)) - 0.5
            gap_next = 1.0 / (1.0 + 2.0 * nu_n(n + 1, gamma)) - 0.5
            if n == 2:
                a[n] = max(abs(q_cert(2, gamma)) / gap, 1.0)
            elif n % 2 == 0:
                a[n] = max(2.0 * abs(q_cert(n, gamma)) / gap, 1.0)
            else:
                a[n] = 1.0 / max(2.0 * abs(q_cert(n, gamma)) / gap_next, 1.0)
    elif gamma <= 2.0:
        # the textbook weights make n = 2 and n = 4 exact equalities; a small
        # perturbation trades the strict slack at n = 3, 5 for strictness there
        def gap(n):
            return 1.0 / (1.0 + 2.0 * nu_n(n, gamma)) - p_n(n, gamma)

        a[2] = abs(q_cert(2, gamma)) / gap(2) * (1.0 + _DELTA)
        if n_max >= 3:
            a[3] = gap(4) / (2.0 * abs(q_cert(3, gamma))) * (1.0 - _DELTA)
        if n_max >= 4:
            a[4] = 2.0 * abs(q_cert(4, gamma)) / gap(4) * (1.0 + _DELTA)
    else:
        gap2 = 1.0 / (1.0 + 2.0 * nu_n(2, gamma)) - p_n(2, gamma)
        a[2] = abs(q_cert(2, gamma)) / gap2 + _DELTA
    return a


def certificate_betas(gamma: float, n_max: int) -> np.ndarray:
    """Weights beta_n (index 0..n_max; beta_0 = 0) for the family-B certificate."""
    b = np.ones(n_max + 1)
    b[0] = 0.0
    if gamma < 2.0 / 3.0:
        for n in range(1, n_max + 1):
            gap = 1.0 / (1.0 - nu_n(n, gamma)) - 0.5
            gap_next = 1.0 / (1.0 - nu_n(n + 1, gamma)) - 0.5
            if n == 1:
                b[n] = max(abs(q_cert(1, gamma)) / gap, 1.0)
            elif n % 2 == 1:
                b[n] = max(2.0 * abs(q_cert(n, gamma)) / gap, 1.0)
            else:
                b[n] = 1.0 / max(2.0 * abs(q_cert(n, gamma)) / gap_next, 1.0)
    else:
        eps = 1.0 / (1.0 + 3.0 * gamma)  # midpoint of the admissible (0, 2/(1+3g))
        b[1] = abs(q_cert(1, gamma)) * 3.0 * (3.0 * gamma + 2.0) / (2.0 - eps)
    return b


def certificate_expressions(gamma: float, n_max: int = 200) -> tuple[np.ndarray, np.ndarray]:
    """The two certificate expressions (in the certificate coefficients)
    E_A(n) = (1+2 nu_n)(p_n + |q_n|/alpha_n + |q_{n-1}| alpha_{n-1}),  n >= 2,
    E_B(n) = (1- nu_n)(p_n + |q_n|/beta_n + |q_{n-1}| beta_{n-1}),    n >= 1,
    returned as arrays indexed from n = 2 (A) and n = 1 (B)."""
    if n_max < 2:
        raise ValueError(f"n_max must be at least 2, got {n_max}")
    a = certificate_alphas(gamma, n_max)
    b = certificate_betas(gamma, n_max)
    ea = np.empty(n_max - 1)
    for n in range(2, n_max + 1):
        ea[n - 2] = (1.0 + 2.0 * nu_n(n, gamma)) * (
            p_n(n, gamma) + abs(q_cert(n, gamma)) / a[n] + abs(q_cert(n - 1, gamma)) * a[n - 1]
        )
    eb = np.empty(n_max)
    for n in range(1, n_max + 1):
        prev = abs(q_cert(n - 1, gamma)) * b[n - 1] if n > 1 else 0.0  # beta_0 = 0
        eb[n - 1] = (1.0 - nu_n(n, gamma)) * (
            p_n(n, gamma) + abs(q_cert(n, gamma)) / b[n] + prev
        )
    return ea, eb


def verify_certificates(gamma: float, n_max: int = 200) -> dict:
    """Strict sup < 1 check for both families plus the large-n limit of the
    expressions.  The finite-n expression behaves like 1/2 + O(1/sqrt(n)), so
    the limit is read off by a least-squares fit c0 + c1/sqrt(n) over the tail."""
    ea, eb = certificate_expressions(gamma, n_max)
    ns_a = np.arange(2, n_max + 1)
    ns_b = np.arange(1, n_max + 1)
    out = {
        "gamma": gamma,
        "sup_a": float(ea.max()),
        "sup_b": float(eb.max()),
        "ok": bool(ea.max() < 1.0 and eb.max() < 1.0),
    }
    for name, expr, ns in (("a", ea, ns_a), ("b", eb, ns_b)):
        tail = ns >= max(20, n_max // 4)
        X = np.column_stack([np.ones(tail.sum()), 1.0 / np.sqrt(ns[tail])])
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
    each within its stated regime, for the certificate coefficient sequences.
    Returns one record per fact and gamma with the number of violations
    (0 expected)."""
    gammas = sorted(gammas)
    records = []

    def add(fact, gamma, viol):
        records.append({"fact": fact, "gamma": gamma, "violations": int(viol)})

    for g in gammas:
        nu = np.array([abs(nu_n(n, g)) for n in range(1, n_max + 1)])
        p = np.array([p_n(n, g) for n in range(1, n_max + 1)])
        q = np.array([abs(q_cert(n, g)) for n in range(1, n_max + 1)])

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
            bound = 1.0 / (4.0 * np.sqrt(np.arange(1, n_max + 1) + g))
            add("sqrt_estimate", g, np.sum(q > bound))
        # ratio fact: (1+2|nu_{n+1}|)(1-2|nu_n|) / ((1-2|nu_{n+1}|)(1+2|nu_n|))
        # is minimized at n = 2
        ratios = []
        for n in range(2, n_max):
            top = (1 + 2 * abs(nu_n(n + 1, g))) / (1 - 2 * abs(nu_n(n + 1, g)))
            bot = (1 - 2 * abs(nu_n(n, g))) / (1 + 2 * abs(nu_n(n, g)))
            ratios.append(top * bot)
        ratios = np.array(ratios)
        add("nu_ratio_min_at_2", g, np.sum(ratios < ratios[0] - 1e-14))

    # cross-gamma monotonicity on the sorted grid
    for i in range(len(gammas) - 1):
        g1, g2 = gammas[i], gammas[i + 1]
        for n in range(1, n_max + 1):
            if abs(nu_n(n, g2)) > abs(nu_n(n, g1)) + 1e-15:
                add("abs_nu_decreasing_in_gamma", g2, 1)
                break
        else:
            add("abs_nu_decreasing_in_gamma", g2, 0)
        if g1 >= 1.0 / 3.0:
            viol = sum(
                1 for n in range(1, n_max + 1) if p_n(n, g2) < p_n(n, g1) - 1e-15
            )
            add("p_increasing_in_gamma", g2, viol)
        viol = sum(
            1 for n in range(3, n_max + 1)
            if abs(q_cert(n, g2)) > abs(q_cert(n, g1)) + 1e-15
        )
        if g1 >= 0.1:
            viol += 1 if abs(q_cert(2, g2)) > abs(q_cert(2, g1)) + 1e-15 else 0
        add("abs_q_decreasing_in_gamma", g2, viol)
    return records
