"""Event-driven simulation of the energy exchange process.

The dynamics is a pure jump process: bond (i, j) fires with rate
Lambda(x_i, x_j) (times 1/N for the long-range topology) and redistributes
the pair energy by a fraction alpha drawn from the kernel.  The simulator is
exact in law (Gillespie): exponential waiting times with the current total
rate, bond choice proportional to bond rates, and O(1) rate bookkeeping per
event with a periodic full refresh to control floating drift.

The spectral gap is estimated from the exponential decay rate of the
autocorrelation of a slow observable; this is an estimate (it sees the gap
only through the observable's overlap with the spectral edge), reported with
batch-means error bars and fit diagnostics, never as a certified bound.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np
from scipy.linalg import solve_triangular
from scipy.stats import beta as beta_dist
from scipy.stats import kstest

from .measures import EnergyConfiguration, SimplexLaw, sample_matrix
from .models import LONG_RANGE, NEAREST, ExchangeKernel, Topology, check_reversible_law

__all__ = [
    "NEAREST",
    "LONG_RANGE",
    "Topology",
    "Trajectory",
    "GapEstimateMC",
    "run",
    "estimate_gap_autocorr",
    "equilibrium_check",
    "slowest_mode_observable",
    "trajectory_to_csv",
]

_MAX_SAMPLES = 1 << 21  # state snapshots kept per run
_REFRESH_EVERY = 64  # events between full recomputations of the total rate
_N_BATCHES = 8  # batch-means blocks of the gap estimate
_BURN_IN = 0.1  # leading fraction of the series discarded
_R2_THRESHOLD = 0.95  # fits with a lower R^2 are flagged


@dataclass
class Trajectory:
    """Recorded output of one run: strided state snapshots."""

    topology: Topology
    kernel_name: str
    initial: EnergyConfiguration
    sample_times: np.ndarray
    samples: np.ndarray  # (n_samples, N) states at the sample times
    n_events: int
    total_time: float
    flagged: bool = False


def _bond_adjacency(topo: Topology) -> list[list[int]]:
    """For each site, the indices of bonds containing it."""
    touching = [[] for _ in range(topo.sites)]
    for b, (i, j) in enumerate(topo.bonds()):
        touching[i].append(b)
        touching[j].append(b)
    return touching


def run(
    kernel: ExchangeKernel,
    topo: Topology,
    law: SimplexLaw,
    rng: np.random.Generator,
    n_events: Optional[int] = None,
    t_max: Optional[float] = None,
    sample_dt: Optional[float] = None,
) -> Trajectory:
    """Exact event-driven simulation started from a sample of ``law``, which
    must be the kernel's reversible law.

    Stops after ``n_events`` events or at time ``t_max`` (whichever is given;
    at least one is required).  States are recorded on the uniform time grid
    k * sample_dt (the state is right-continuous piecewise constant), at most
    _MAX_SAMPLES of them; when ``sample_dt`` is omitted it is chosen so that
    roughly 2^18 samples cover the run, using the initial total rate.
    """
    if n_events is None and t_max is None:
        raise ValueError("give n_events or t_max")
    if law.sites != topo.sites:
        raise ValueError("law and topology disagree on the number of sites")
    check_reversible_law(kernel, law)
    bonds = topo.bonds()
    touching = _bond_adjacency(topo)
    pref = topo.prefactor
    initial = EnergyConfiguration(sample_matrix(law, 1, rng)[0], law.mean_energy)
    x = [float(v) for v in initial.x]
    rate = kernel.rate
    sampler = kernel.alpha_sampler

    rates = [pref * rate(x[i], x[j]) for (i, j) in bonds]
    total = sum(rates)
    if not total > 0:
        return Trajectory(topo, kernel.name, initial, np.zeros(1), np.array([x]),
                          0, 0.0, flagged=True)

    if sample_dt is None:
        horizon = t_max if t_max is not None else n_events / total
        sample_dt = max(horizon / (1 << 18), 1e-12)

    cap_events = n_events if n_events is not None else (1 << 62)
    cap_time = t_max if t_max is not None else math.inf

    samples = [list(x)]
    sample_times = [0.0]

    t = 0.0
    next_sample = sample_dt
    done = 0
    block = 8192
    exp_block = rng.exponential(1.0, block)
    uni_block = rng.random(block)
    ptr = 0
    while done < cap_events:
        if ptr == block:
            exp_block = rng.exponential(1.0, block)
            uni_block = rng.random(block)
            ptr = 0
        t_next = t + exp_block[ptr] / total
        if t_next > cap_time:
            t = cap_time
            break
        # record the pre-event state on every grid point crossed by the wait
        while next_sample <= t_next and len(samples) < _MAX_SAMPLES:
            samples.append(list(x))
            sample_times.append(next_sample)
            next_sample += sample_dt
        t = t_next
        # choose the firing bond proportionally to the current rates
        u = uni_block[ptr] * total
        ptr += 1
        acc = 0.0
        b = len(rates) - 1
        for k, r in enumerate(rates):
            acc += r
            if u < acc:
                b = k
                break
        i, j = bonds[b]
        alpha = sampler(x[i], x[j], rng)
        s = x[i] + x[j]
        x[i] = alpha * s
        x[j] = s - alpha * s
        for k in touching[i]:
            total -= rates[k]
            bi, bj = bonds[k]
            rates[k] = pref * rate(x[bi], x[bj])
            total += rates[k]
        for k in touching[j]:
            if k in touching[i]:
                continue
            total -= rates[k]
            bi, bj = bonds[k]
            rates[k] = pref * rate(x[bi], x[bj])
            total += rates[k]
        done += 1
        if done % _REFRESH_EVERY == 0:
            total = sum(rates)
        if not total > 0:
            return Trajectory(topo, kernel.name, initial,
                              np.asarray(sample_times), np.asarray(samples),
                              done, t, flagged=True)
    return Trajectory(topo, kernel.name, initial,
                      np.asarray(sample_times), np.asarray(samples), done, t)


# ---------------------------------------------------------------------------
# observables and the autocorrelation gap estimator

def slowest_mode_observable(law: SimplexLaw, kernel: ExchangeKernel,
                            degree: int, topology: str) -> Callable[[np.ndarray], np.ndarray]:
    """Polynomial observable built from the slowest Galerkin eigenvector;
    maximal overlap with the spectral edge among degree-d polynomials."""
    from .galerkin import _whitened_pencil, assemble

    A, G, basis = assemble(law, kernel, degree, topology)
    M, L, d, _ = _whitened_pencil(A, G)
    _, V = np.linalg.eigh(M)
    coeff = d * solve_triangular(L, V[:, 0], lower=True, trans="T")
    exponents = [k for k in basis[1:]]

    def observable(states: np.ndarray) -> np.ndarray:
        states = np.atleast_2d(np.asarray(states, dtype=float))
        out = np.zeros(states.shape[0])
        for c, expo in zip(coeff, exponents):
            term = np.full(states.shape[0], c)
            for axis, p in enumerate(expo):
                if p:
                    term = term * states[:, axis] ** p
            out += term
        return out

    return observable


@dataclass
class GapEstimateMC:
    """Autocorrelation decay-rate estimate with diagnostics."""

    value: float
    stderr: float
    observable: str
    window: tuple[int, int]
    r_squared: float
    dt: float
    n_samples: int
    flagged: bool = False
    diagnostics: dict = field(default_factory=dict)


def _autocorrelation(y: np.ndarray, max_lag: int) -> np.ndarray:
    y = y - y.mean()
    n = y.size
    m = 1 << (2 * n - 1).bit_length()
    f = np.fft.rfft(y, m)
    acf = np.fft.irfft(f * np.conj(f), m)[: max_lag + 1]
    acf /= np.arange(n, n - max_lag - 1, -1)
    return acf / acf[0]


def _fit_decay(rho: np.ndarray, dt: float, lo: float = 0.05, hi: float = 0.8):
    """Least-squares slope of log rho over the window where rho in [lo, hi].
    Returns (rate, window, r_squared) or None when no usable window exists."""
    below_hi = np.nonzero(rho < hi)[0]
    start = int(below_hi[0]) if below_hi.size else 1
    start = max(start, 1)
    end = start
    while end < rho.size and rho[end] > lo:
        end += 1
    if end - start < 4:
        return None
    lags = np.arange(start, end)
    logs = np.log(rho[start:end])
    t = lags * dt
    A = np.column_stack([np.ones_like(t), t])
    coef, *_ = np.linalg.lstsq(A, logs, rcond=None)
    fit = A @ coef
    ss_res = float(np.sum((logs - fit) ** 2))
    ss_tot = float(np.sum((logs - logs.mean()) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 0.0
    return -float(coef[1]), (start, end), r2


def estimate_gap_autocorr(
    kernel: ExchangeKernel,
    topo: Topology,
    law: SimplexLaw,
    rng: np.random.Generator,
    n_events: int = 1_000_000,
    observable: Optional[Callable[[np.ndarray], np.ndarray]] = None,
    observable_name: str = "centered_x1",
) -> GapEstimateMC:
    """Spectral-gap estimate from the autocorrelation decay of a slow
    observable along one long equilibrium trajectory.

    The first _BURN_IN fraction of the series is discarded, the decay rate
    is fitted over the window where the normalized autocorrelation lies in
    [0.05, 0.8], and the standard error comes from batch means: the series is
    split into _N_BATCHES contiguous blocks, each refitted independently.
    A fit with R^2 below _R2_THRESHOLD is flagged.

    The sampling interval is tuned by a short pilot run so that one decay
    time spans roughly seven lags; ``n_events`` is the total event budget
    (pilot plus main run, the main run also capped by the sample buffer).
    """
    # pilot: locate the relaxation time scale
    pilot_events = min(30_000, n_events // 10)
    pilot_dt = None
    lam_hat = None
    for _ in range(5):
        pilot = run(kernel, topo, law, rng, n_events=pilot_events, sample_dt=pilot_dt)
        y0 = pilot.samples[:, 0] if observable is None else observable(pilot.samples)
        dt0 = float(pilot.sample_times[1] - pilot.sample_times[0])
        rho0 = _autocorrelation(y0, min(y0.size // 4, 4096))
        idx = np.nonzero(rho0 < 1.0 / math.e)[0]
        if idx.size and idx[0] > 2:
            lam_hat = 1.0 / (idx[0] * dt0)
            break
        pilot_dt = dt0 / 16.0  # grid too coarse for the decay; refine and retry
    if lam_hat is None:
        lam_hat = 1.0 / dt0
    sample_dt = 0.15 / lam_hat

    traj = run(kernel, topo, law, rng, n_events=n_events,
               t_max=sample_dt * (_MAX_SAMPLES - 2), sample_dt=sample_dt)
    states = traj.samples
    dt = float(traj.sample_times[1] - traj.sample_times[0])
    if observable is None:
        y = states[:, 0]
    else:
        y = observable(states)
    y = np.asarray(y, dtype=float)
    y = y[int(_BURN_IN * y.size):]

    max_lag = min(y.size // 4, 1 << 14)
    rho = _autocorrelation(y, max_lag)
    fit = _fit_decay(rho, dt)
    if fit is None:
        return GapEstimateMC(math.nan, math.nan, observable_name, (0, 0), 0.0,
                             dt, y.size, flagged=True)
    value, window, r2 = fit

    batch_vals = []
    size = y.size // _N_BATCHES
    for b in range(_N_BATCHES):
        seg = y[b * size:(b + 1) * size]
        seg_rho = _autocorrelation(seg, min(seg.size // 4, max_lag))
        seg_fit = _fit_decay(seg_rho, dt)
        if seg_fit is not None:
            batch_vals.append(seg_fit[0])
    if len(batch_vals) >= 3:
        stderr = float(np.std(batch_vals, ddof=1) / math.sqrt(len(batch_vals)))
    else:
        stderr = math.nan
    flagged = (r2 < _R2_THRESHOLD) or not np.isfinite(stderr)
    return GapEstimateMC(
        value=value,
        stderr=stderr,
        observable=observable_name,
        window=window,
        r_squared=r2,
        dt=dt,
        n_samples=int(y.size),
        flagged=flagged,
        diagnostics={
            "n_events": traj.n_events,
            "total_time": traj.total_time,
            "n_batches_used": len(batch_vals),
            "estimator": "log-autocorrelation least squares, window rho in [0.05, 0.8]",
        },
    )


def equilibrium_check(
    kernel: ExchangeKernel,
    topo: Topology,
    law: SimplexLaw,
    rng: np.random.Generator,
    n_events: int = 200_000,
    n_keep: int = 800,
) -> dict:
    """Kolmogorov-Smirnov test of the empirical single-site marginal against
    the exact scaled Beta(gamma, (N-1) gamma) marginal; pass below the 1%
    level.  Samples are thinned to roughly independent spacing."""
    traj = run(kernel, topo, law, rng, n_events=n_events)
    xs = traj.samples[:, 0]
    stride = max(1, xs.size // n_keep)
    xs = xs[::stride]
    g = law.gamma.gamma
    n = law.sites
    dist = beta_dist(g, (n - 1) * g, scale=law.total_energy)
    stat, pvalue = kstest(xs, dist.cdf)
    return {
        "kernel": kernel.name,
        "topology": topo.kind,
        "sites": n,
        "n_samples": int(xs.size),
        "ks_statistic": float(stat),
        "p_value": float(pvalue),
        "pass": bool(pvalue > 0.01),
    }


def trajectory_to_csv(traj: Trajectory, path: str) -> None:
    """Write the strided snapshots as CSV with columns time, x_1..x_N."""
    n = traj.samples.shape[1]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["time"] + [f"x_{i + 1}" for i in range(n)])
        for t, row in zip(traj.sample_times, traj.samples):
            writer.writerow([f"{t:.17g}"] + [f"{v:.17g}" for v in row])
