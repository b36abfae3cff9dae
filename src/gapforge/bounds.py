"""Inequality harness: assembles gaps and constants from the other modules
and checks every theorem-level inequality numerically, plus the moving-path
construction used in the nearest-neighbor/long-range comparison.

Provenance discipline: a Galerkin value is an upper bound on a gap, so any
check whose favorable direction would need a lower bound from it is reported
as "consistent" (plateau treated as the value) rather than "verified"; exact
formulas and Monte Carlo estimates carry their own provenance tags.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import asdict, dataclass

import numpy as np
from scipy.special import betainc

from .galerkin import kappa, kappa_tilde, spectral_gap, two_site_constant
from .measures import GammaShape, SimplexLaw, _check_count, sample_matrix
from .models import LONG_RANGE, NEAREST, ExchangeKernel, make_kernel, star_kernel

__all__ = [
    "TheoremCheck",
    "MovingPath",
    "build_moving_path",
    "exact_gap_lr_m0",
    "check_scaling",
    "check_thm0",
    "check_convex",
    "check_compm2m",
    "check_compare_and_main",
    "check_prop21",
    "check_negative_m_remark",
    "check_stick_two_site",
    "check_kappa_chain",
    "run_all_checks",
]

_SAMPLE_CHUNK = 4096  # configuration rows the negative-m check draws at once


@dataclass(frozen=True)
class TheoremCheck:
    claim: str
    params: dict
    lhs: float
    rhs: float
    provenance: str
    passed: bool
    note: str = ""

    @property
    def margin(self) -> float:
        return self.lhs - self.rhs

    def to_record(self) -> dict:
        record = asdict(self)
        record["pass"] = record.pop("passed")
        return {**record, "margin": self.margin}


# ---------------------------------------------------------------------------
# moving path

@dataclass(frozen=True)
class MovingPath:
    """Decomposition of the swap pi_{i,j} into nearest and next-nearest swaps.

    The site sequence n_0..n_{4K-3} (K = j - i) tracks the moving energy:
    composing the transpositions (n_k, n_{k+1}) yields pi_{i,j}, each step is
    adjacent or next-nearest, and every adjacent pair {l, l+1} is used at most
    three times, every {l, l+2} at most once.
    """

    i: int
    j: int
    sites: tuple

    @property
    def swaps(self) -> list[tuple[int, int]]:
        return list(zip(self.sites[:-1], self.sites[1:]))


def build_moving_path(i: int, j: int) -> MovingPath:
    """Site sequence of the four-segment construction: ascend i..j, then an
    interleaved descent j-2, j-1, j-3, j-2, ..., then the final ascent."""
    if i < 0:
        raise ValueError(f"sites are numbered from 0, got i = {i}")
    if not i < j:
        raise ValueError("need i < j")
    descent = (s for l in range(j - i - 1) for s in (j - 2 - l, j - 1 - l))
    path = MovingPath(i, j, (*range(i, j + 1), *descent, *range(i + 2, j + 1)))
    _assert_path_invariants(path)
    return path


def _assert_path_invariants(path: MovingPath) -> None:
    i, j, sites = path.i, path.j, path.sites
    # the swaps join consecutive sites, so from n_0 = i the tracked energy
    # x_i sits at n_k before step k + 1
    assert sites[0] == i, "path must start at i"
    assert len(sites) == 4 * (j - i) - 2, "path must have 4 (j - i) - 2 sites"
    perm = list(range(j + 1))  # perm[s]: the original site of the energy at s
    used = Counter()
    for a, b in path.swaps:
        assert abs(a - b) in (1, 2), "step size must be 1 or 2"
        assert i <= a <= j and i <= b <= j, "sites must lie in [i, j]"
        perm[a], perm[b] = perm[b], perm[a]
        used[min(a, b), abs(a - b)] += 1
    expected = list(range(j + 1))
    expected[i], expected[j] = j, i
    assert perm == expected, "composition must equal the (i, j) swap"
    for (a, step), count in used.items():
        cap = 3 if step == 1 else 1
        assert count <= cap, f"pair ({a}, {a + step}) used {count} > {cap} times"


# ---------------------------------------------------------------------------
# exact formulas

def exact_gap_lr_m0(gamma: float, n_sites: int) -> float:
    """Long-range m = 0 star gap: (gamma N + 1) / (N (2 gamma + 1))."""
    return (gamma * n_sites + 1.0) / (n_sites * (2.0 * gamma + 1.0))


# ---------------------------------------------------------------------------
# checks

def _gap(kernel: ExchangeKernel, topology: str, energy: float, n_sites: int,
         degree: int) -> float:
    """Galerkin gap of the kernel under its own reversible law."""
    law = SimplexLaw(kernel.gamma, energy, n_sites)
    return spectral_gap(law, kernel, degree, topology).value


def check_scaling(m: float, gamma: float, energies=(0.5, 1.0, 2.0),
                  n_sites: int = 3) -> TheoremCheck:
    """gap(E, N) = E^m gap(1, N) on the energy grid, to relative error 1e-10."""
    rtol = 1e-10
    degree = 3
    star = star_kernel(m, GammaShape(gamma))
    base = _gap(star, LONG_RANGE, 1.0, n_sites, degree)
    worst = 0.0
    for e in energies:
        val = _gap(star, LONG_RANGE, e, n_sites, degree)
        worst = max(worst, abs(val - e ** m * base) / (e ** m * base))
    return TheoremCheck(
        claim="scaling-identity",
        params={"m": m, "gamma": gamma, "N": n_sites, "energies": list(energies)},
        lhs=worst,
        rhs=rtol,
        provenance="galerkin/galerkin (identity transfers exactly)",
        passed=worst < rtol,
    )


def check_thm0(gamma_grid=(0.5, 1.0, 1.5, 2.0), n_range=range(2, 7)) -> list[TheoremCheck]:
    """Long-range m = 0 Galerkin gap equals the exact formula to 1e-8; the
    values decrease monotonically in N toward gamma/(2 gamma + 1)."""
    tol = 1e-8
    degree = 3
    out = []
    for g in gamma_grid:
        worst = 0.0
        vals = []
        for n in n_range:
            got = _gap(star_kernel(0.0, GammaShape(g)), LONG_RANGE, 1.0, n, degree)
            vals.append(got)
            worst = max(worst, abs(got - exact_gap_lr_m0(g, n)))
        limit = g / (2.0 * g + 1.0)
        monotone = all(a >= b - 1e-12 for a, b in zip(vals, vals[1:])) and vals[-1] > limit
        out.append(TheoremCheck(
            claim="exact-m0-formula",
            params={"gamma": g, "N": list(n_range)},
            lhs=worst,
            rhs=tol,
            provenance="galerkin/exact",
            passed=worst < tol and monotone,
            note=f"monotone decrease toward {limit:.6f}: {monotone}",
        ))
    return out


def check_convex(m: float, gamma: float, n_sites: int = 3) -> TheoremCheck:
    """Convex comparison at E = 1: lambda_LR^(m) >= (E^m kappa_m / 2) lambda_LR^(0)."""
    degree = 4
    lhs = _gap(star_kernel(m, GammaShape(gamma)), LONG_RANGE, 1.0, n_sites, degree)
    k_m = kappa(m, gamma, degree=6)
    rhs = k_m / 2.0 * exact_gap_lr_m0(gamma, n_sites)
    return TheoremCheck(
        claim="convex-comparison",
        params={"m": m, "gamma": gamma, "E": 1.0, "N": n_sites},
        lhs=lhs,
        rhs=rhs,
        provenance="galerkin-plateau (consistent) / exact * galerkin-kappa",
        passed=lhs >= rhs,
    )


def check_compm2m(m: float, gamma: float, n_sites: int = 3) -> TheoremCheck:
    """m-to-2m comparison: with kappa~_m >= 1/3,
    lambda_LR^(m) >= sqrt(((3 kappa~_m - 1)(1 - 2/N) + 1/N) lambda_LR^(2m))."""
    degree = 4
    kt = kappa_tilde(m, gamma, degree=6)
    lhs = _gap(star_kernel(m, GammaShape(gamma)), LONG_RANGE, 1.0, n_sites, degree)
    pref = (3.0 * kt - 1.0) * (1.0 - 2.0 / n_sites) + 1.0 / n_sites
    gap_2m = _gap(star_kernel(2 * m, GammaShape(gamma)), LONG_RANGE, 1.0, n_sites, degree)
    rhs = math.sqrt(max(pref, 0.0) * gap_2m)
    return TheoremCheck(
        claim="m-to-2m-comparison",
        params={"m": m, "gamma": gamma, "N": n_sites, "kappa_tilde_m": kt},
        lhs=lhs,
        rhs=rhs,
        provenance="galerkin-plateau (consistent) both sides",
        passed=(kt >= 1.0 / 3.0 - 1e-9) and lhs >= rhs,
        note=f"hypothesis kappa~_m >= 1/3 checked: {kt:.6f}",
    )


def check_compare_and_main(kernel_name: str, m: float, gamma: float,
                           n_range=range(2, 7)) -> TheoremCheck:
    """Empirical constant of the nearest-neighbor lower bound: c(N) =
    lambda * N^2 / E^m must stay bounded below with no downward trend."""
    degree = 3
    kern = make_kernel(kernel_name, m=m, gamma=gamma)
    m, gamma = kern.m, kern.gamma.gamma
    consts = []
    for n in n_range:
        lam = _gap(kern, NEAREST, 1.0, n, degree)
        consts.append(lam * n * n)
    consts = np.asarray(consts)
    # no downward trend: the last value must not undercut the earlier ones by
    # more than 10%, and all values are positive
    trending_down = consts[-1] < 0.9 * consts[:-1].min()
    passed = bool(np.all(consts > 0) and not trending_down)
    return TheoremCheck(
        claim="main-theorem-empirical-constant",
        params={"kernel": kernel_name, "m": m, "gamma": gamma, "N": list(n_range)},
        lhs=float(consts.min()),
        rhs=0.0,
        provenance="galerkin-plateau (consistent); constant is empirical",
        passed=passed,
        note="lambda*N^2 values: " + ", ".join(f"{c:.5f}" for c in consts),
    )


def check_prop21(kernel_name: str, n_sites: int = 3) -> TheoremCheck:
    """Proposition-style mechanical lower bound: lambda >= (C~ / 2^m) lambda*^m
    for kernels with a mechanical form."""
    degree = 6
    kern = make_kernel(kernel_name)
    m, gamma = kern.m, kern.gamma.gamma
    ctilde = two_site_constant(kern, degree=20)
    lam = _gap(kern, NEAREST, 1.0, n_sites, degree)
    star_gap = _gap(star_kernel(m, kern.gamma), NEAREST, 1.0, n_sites, degree)
    rhs = ctilde / (2.0 ** m) * star_gap
    return TheoremCheck(
        claim="mechanical-lower-bound",
        params={"kernel": kernel_name, "m": m, "gamma": gamma, "N": n_sites,
                "ctilde": ctilde},
        lhs=lam,
        rhs=rhs,
        provenance="galerkin-plateau (consistent) / two-site * galerkin",
        passed=lam >= rhs,
    )


def check_negative_m_remark(m: float = -1.0, n_sites: int = 16, gamma: float = 1.0,
                            n_samples: int = 200_000, seed: int = 0) -> TheoremCheck:
    """No uniform gap for m < 0: the Rayleigh quotient of the indicator
    f = 1{x_1 > N/2} under the long-range dynamics is <= 2^-m N^m (within
    Monte Carlo error).  Variance is exact via the Beta marginal; the inner
    alpha integral is exact via the incomplete Beta function; only the outer
    configuration average is Monte Carlo.  Configurations are drawn
    _SAMPLE_CHUNK rows at a time, the same stream as one draw, so only the
    per-sample Dirichlet terms (8 bytes a sample) grow with n_samples."""
    _check_count("n_samples", n_samples, 2)
    if not -math.inf < m < 0:
        raise ValueError(f"the negative-m remark needs a finite m < 0, got m = {m}")
    rng = np.random.default_rng(seed)
    law = SimplexLaw(GammaShape(gamma), 1.0, n_sites)
    n = n_sites
    half = n / 2.0
    p = 1.0 - float(betainc(gamma, (n - 1) * gamma, 0.5))  # P(x_1 > N/2), x_1 = N Beta
    var = p * (1.0 - p)
    contrib = np.zeros(n_samples)
    for lo in range(0, n_samples, _SAMPLE_CHUNK):
        xs = sample_matrix(law, min(_SAMPLE_CHUNK, n_samples - lo), rng)
        x1, out = xs[:, 0], contrib[lo:lo + _SAMPLE_CHUNK]
        for j in range(1, n):
            s = x1 + xs[:, j]
            thr = np.clip(half / s, 0.0, 1.0)
            tail = 1.0 - betainc(gamma, gamma, thr)  # P(alpha s > N/2)
            inner = np.where(x1 > half, 1.0 - tail, tail)
            out += s ** m * inner
    # D = (1/2) (1/N) sum_bonds E[Lambda * E_alpha (f(T x) - f(x))^2]; bonds not
    # containing site 1 vanish
    d_samples = 0.5 / n * contrib
    d_mean = float(d_samples.mean())
    d_err = float(d_samples.std(ddof=1) / math.sqrt(n_samples))
    lhs = d_mean / var
    sigma = d_err / var
    bound = 2.0 ** (-m) * n ** m
    return TheoremCheck(
        claim="negative-m-no-uniform-gap",
        params={"m": m, "N": n_sites, "gamma": gamma, "n_samples": n_samples,
                "stderr": sigma},
        lhs=float(lhs),
        rhs=bound,
        provenance="mc-estimate (Rayleigh quotient upper-bounds the gap)",
        passed=bool(lhs <= bound + 3.0 * sigma),
        note=f"quotient {lhs:.6f} +- {sigma:.6f} vs bound {bound:.6f}",
    )


def stick_two_site_lower(m: float) -> float:
    """sup over 0 < a < 1/4 of a^(m-1) (1 - 4a) (equals 1 at m = 1; maximizer
    a = (m-1)/(4m) for m > 1; +inf for m < 1, so no bound there)."""
    if not m >= 1.0:
        raise ValueError(f"the stick two-site bound needs m >= 1, got {m}")
    a = (m - 1.0) / (4.0 * m)
    return a ** (m - 1.0) * (1.0 - 4.0 * a)


def check_stick_two_site(m_list=(1.0, 2.0, 3.0)) -> list[TheoremCheck]:
    """Two-site stick constants: exactly 1 at m = 1 and above the explicit
    piecewise-power lower bound for larger m."""
    degree = 30
    out = []
    for m in m_list:
        bound = stick_two_site_lower(m)
        val = two_site_constant(make_kernel("stick", m=m), degree=degree)
        if m == 1.0:
            passed = abs(val - 1.0) < 1e-6
            note = "identity value 1"
        else:
            passed = val >= bound
            note = f"lower bound max_a a^(m-1)(1-4a) = {bound:.6f}"
        out.append(TheoremCheck(
            claim="stick-two-site",
            params={"m": m},
            lhs=val,
            rhs=bound if m != 1.0 else 1.0,
            provenance="two-site eigenvalue / exact bound",
            passed=passed,
            note=note,
        ))
    return out


def check_kappa_chain(gamma: float = 1.0) -> list[TheoremCheck]:
    """Corollary chain: kappa_1 >= 3 kappa~_1 - 1 and kappa_m >= kappa_1^m' / 2
    for m > 1 with 1/m + 1/m' = 1 (checked as consistency of plateaus)."""
    degree = 6
    kt1 = kappa_tilde(1.0, gamma, degree)
    k1 = kappa(1.0, gamma, degree)
    out = [TheoremCheck(
        claim="kappa-chain-nn-vs-lr",
        params={"gamma": gamma},
        lhs=k1,
        rhs=3.0 * kt1 - 1.0,
        provenance="galerkin-plateau (consistent) both sides",
        passed=k1 >= 3.0 * kt1 - 1.0,
    )]
    for m in (2.0, 3.0):
        mp = m / (m - 1.0)
        km = kappa(m, gamma, degree)
        out.append(TheoremCheck(
            claim="kappa-chain-holder",
            params={"gamma": gamma, "m": m},
            lhs=km,
            rhs=k1 ** mp / 2.0,
            provenance="galerkin-plateau (consistent) both sides",
            passed=km >= k1 ** mp / 2.0,
        ))
    return out


def run_all_checks(fast: bool = False) -> list[TheoremCheck]:
    """The full harness; with ``fast`` a reduced grid for smoke tests."""
    checks: list[TheoremCheck] = []
    n_hi = 5 if fast else 7
    checks.extend(check_thm0(n_range=range(2, n_hi)))
    checks.append(check_scaling(1.0, 1.0))
    checks.append(check_scaling(0.5, 1.0, energies=(4.0,)))
    for n in (3, 4, 5):
        checks.append(check_convex(1.0, 1.0, n_sites=n))
    checks.append(check_convex(2.0, 1.0, n_sites=3))
    for n in range(3, n_hi):
        checks.append(check_compm2m(0.5, 1.0, n_sites=n))
    checks.append(check_compm2m(1.0, 1.0, n_sites=3))
    for name, m in (("star", 0.0), ("star", 0.5), ("star", 1.0)):
        checks.append(check_compare_and_main(name, m, 1.0, n_range=range(2, n_hi)))
    for m in (1.0, 2.0):
        checks.append(check_compare_and_main("stick", m, 1.0, n_range=range(2, n_hi)))
    checks.append(check_compare_and_main("gg3", 0.5, 1.5, n_range=range(2, n_hi)))
    checks.append(check_compare_and_main("gg2", 0.5, 1.0, n_range=range(2, n_hi)))
    for name in ("gg3", "gg2", "stick"):
        checks.append(check_prop21(name))
    checks.extend(check_stick_two_site())
    checks.extend(check_kappa_chain())
    checks.append(check_negative_m_remark(n_samples=50_000 if fast else 200_000))
    return checks
