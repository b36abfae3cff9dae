"""Event-driven simulation of the energy exchange process.

The dynamics is a pure jump process: bond (i, j) fires with rate
Lambda(x_i, x_j) (times 1/N for the long-range topology) and redistributes
the pair energy by a fraction alpha drawn from the kernel.  The simulator is
exact in law (Gillespie): exponential waiting times with the current total
rate and bond choice proportional to bond rates.  One event costs a bond
scan, an alpha draw, a rate call per bond touching the pair (2 on a chain,
2N - 3 on the complete graph) and a log append: 2-3.5 us on 3 or 4 sites,
10-16 for gg2's rejection sampler (2-CPU x86-64, scripts/event_rate.py).
Each block of 8192 events takes its waiting times and bond uniforms from two
array calls and its alphas the way its sampler's type declares:
``models.BetaSampler`` (the star family, Beta(g, g) whatever the pair) from
one rng.beta call, a ``models.UniformSampler`` (stick, gg3, gg2) from the
``__next__`` of a generator over uniforms drawn ahead in batches, 140 ns a
uniform against 625 for a scalar rng.random() call.  Star m = 0 (kmp) rates
are constant, as (a + b) ** 0.0 is 1.0 for every float: its blocks find
their event times and bonds by cumsum and searchsorted, which repeat the
loop's sequential sums, so an event is a pair update and a log append, 1-2 us
on 3 to 16 sites; a rate other than the declared form is refused.  The log (or,
for the estimator, its observable, one float per logged state) is sampled
onto the grid every _LOG_EVENTS events into one sample buffer pair, grown in
place by half up to the rows the budget is projected to fill (past them only
as needed) and trimmed once at the end; the default grid keeps about one
sample per event, at most _GRID_ROWS.  Events run in chunks of
_REFRESH_EVERY, after each of which the total rate is summed afresh to
control floating drift.  Any other sampler is called per event with the
generator itself.

The spectral gap is estimated from the exponential decay rate of the
autocorrelation of a slow observable; this is an estimate (it sees the gap
only through the observable's overlap with the spectral edge), reported with
batch-means error bars and fit diagnostics, never as a certified bound.  The
autocorrelation sums, block by block, the cross-correlation of
max(4 max_lag, 2^14) samples with the same samples plus the max_lag after
them, each from real FFTs zero-padded to the smallest 2^a 3^b 5^c >= block +
max_lag: exact up to max_lag (no wraparound), in memory that grows with
max_lag and not with n.  A series of at most one block plus max_lag samples
is one block and takes its power spectrum from a single FFT.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np
from scipy.linalg import solve_triangular

from .measures import SimplexLaw, _check_count, _check_positive, sample_matrix
from .models import (LONG_RANGE, NEAREST, BetaSampler, ExchangeKernel, Topology,
                     UniformSampler, check_reversible_law)

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
_GRID_ROWS = 1 << 18  # most samples a default grid aims at
_REFRESH_EVERY = 64  # events between full recomputations of the total rate
_LOG_EVENTS = 8192  # events logged between samplings of the grid
_AHEAD = 2048  # most uniforms one batch of a UniformSampler's draws takes
_N_BATCHES = 8  # batch-means blocks of the gap estimate
_BURN_IN = 0.1  # leading fraction of the series discarded
_R2_THRESHOLD = 0.95  # fits with a lower R^2 are flagged


@dataclass
class Trajectory:
    """Recorded output of one run: strided state snapshots."""

    topology: Topology
    kernel_name: str
    sample_times: np.ndarray
    samples: np.ndarray  # (n_samples, N) states at the sample times
    n_events: int
    total_time: float
    flagged: bool = False


def _bond_updates(topo: Topology) -> list[tuple[tuple[int, int, int], ...]]:
    """For each bond (i, j), the (bond, site, site) triples whose rates change
    when it fires: the bonds touching i, then the other bonds touching j."""
    bonds = topo.bonds()
    touching = [[] for _ in range(topo.sites)]
    for b, (i, j) in enumerate(bonds):
        touching[i].append(b)
        touching[j].append(b)
    return [tuple((k, *bonds[k]) for k in touching[i] + [k for k in touching[j]
                                                         if k not in touching[i]])
            for i, j in bonds]


class _DrawAhead:
    """Batches of a declared sampler's draws, taken from the generator ahead
    of the events that use them.  Settling restores the state saved before
    the batch and redraws the count served, which leaves the generator where
    the scalar calls would."""

    def __init__(self, rng: np.random.Generator):
        self._rng = rng
        self._key = None  # (method, *args) of the values drawn ahead

    def draw(self, key, size: int):
        """An iterator over ``size`` values of (method, *args) drawn at once;
        settling hands back to the generator the ones not taken."""
        self.settle()
        self._state = self._rng.bit_generator.state
        self._left = iter(getattr(self._rng, key[0])(*key[1:], size=size).tolist())
        self._size, self._key = size, key
        return self._left

    def uniforms(self):
        """Uniforms in batches doubling up to _AHEAD; valid until the next settle."""
        size = 8
        while True:
            yield from self.draw(("random",), size)
            size = min(2 * size, _AHEAD)

    def settle(self) -> None:
        if self._key is not None:
            used = self._size - operator.length_hint(self._left)
            if used < self._size:
                self._rng.bit_generator.state = self._state
                getattr(self._rng, self._key[0])(*self._key[1:], size=used)
            self._key = None


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
    _MAX_SAMPLES of them; when ``sample_dt`` is omitted it is chosen from the
    initial total rate so that about one sample per (expected) event, at most
    _GRID_ROWS = 2^18, cover the run.

    The kernel's alpha sampler is called per event as sampler(a, b, rng),
    unless its type declares draws taken in batches (``BetaSampler``,
    ``UniformSampler``); either way ``rng`` gives the same stream and ends
    in the same state.
    """
    return _simulate(kernel, topo, law, rng, n_events, t_max, sample_dt, lambda rows: rows)


def _simulate(kernel, topo, law, rng, n_events, t_max, sample_dt, observe,
              grid_rows=None) -> Trajectory:
    """``run``, recording observe(rows) in place of the (k, N) state rows;
    ``observe`` returns (k, c) and acts row by row.  ``grid_rows`` fixes the
    samples a default grid aims at, whatever the event budget."""
    if not isinstance(rng, np.random.Generator):
        raise TypeError(f"rng must be a numpy.random.Generator, got {type(rng).__name__}")
    if n_events is None and t_max is None:
        raise ValueError("give n_events or t_max")
    if n_events is not None:
        _check_count("n_events", n_events, 1)
    for key, val in (("t_max", t_max), ("sample_dt", sample_dt)):
        if val is not None:
            _check_positive(key, val)
    if law.sites != topo.sites:
        raise ValueError("law and topology disagree on the number of sites")
    check_reversible_law(kernel, law)
    bonds = topo.bonds()
    updates = _bond_updates(topo)
    pref = topo.prefactor
    x = sample_matrix(law, 1, rng)[0].tolist()
    first = observe(np.array([x]))
    rate = kernel.rate
    sampler = kernel.alpha_sampler
    # Beta(g, g) whatever the pair: each block's alphas come from one array call
    beta_g = sampler.g if type(sampler) is BetaSampler else None
    alphas = None
    uniform_only = type(sampler) is UniformSampler  # its uniforms come in batches too
    sample = sampler.draw if uniform_only else sampler

    rates = [pref * rate(x[i], x[j]) for (i, j) in bonds]
    total = sum(rates)
    # star m = 0: (a + b) ** 0.0 is 1.0 for every float, so no rate ever moves
    # and, when its update cancels exactly, neither does the total
    steady = kernel.name in ("star", "kmp") and kernel.m == 0
    if steady and any(r != pref for r in rates):
        raise ValueError(f"{kernel.name} kernel with m = 0 has a rate other than 1")
    steady = steady and (total - pref) + pref == total
    if not total > 0:
        return Trajectory(topo, kernel.name, np.zeros(1), first, 0, 0.0, flagged=True)

    # the time the budget is projected to take at the initial total rate
    horizon = min(t_max or math.inf, (n_events or math.inf) / total)
    if sample_dt is None:
        sample_dt = max(horizon / (grid_rows or min(n_events or t_max * total, _GRID_ROWS)), 1e-12)
    projected = int(min(_MAX_SAMPLES, horizon / sample_dt + 2))  # the grid rows it fills

    cap_events = n_events if n_events is not None else (1 << 62)
    cap_time = t_max if t_max is not None else math.inf

    # the log since the last flush: event times; the prior state, then each new one
    times, flat = [], list(x)
    # the output: rows [0, n_samples) of one buffer pair, grown in place
    grid = np.zeros(min(4096, _MAX_SAMPLES))
    samples = np.zeros((grid.size, first.shape[1]))
    samples[0], n_samples = first[0], 1

    def flush():
        # grid point g takes the state before the first logged event at or
        # after g; np.cumsum adds in sequence, so it continues the running sum
        nonlocal n_samples
        rows = observe(np.array(flat).reshape(-1, len(x)))
        while times and n_samples < _MAX_SAMPLES and grid[n_samples - 1] + sample_dt <= times[-1]:
            last = grid[n_samples - 1]
            k = min(_MAX_SAMPLES - n_samples, int((times[-1] - last) / sample_dt) + 2)
            g = np.cumsum(np.r_[last, np.full(k, sample_dt)])[1:]
            g = g[:np.searchsorted(g, times[-1], "right")]
            end = n_samples + g.size
            if end > grid.size:  # by half up to the projection, past it as needed
                size = max(end, min(grid.size + grid.size // 2, projected))
                grid.resize(size, refcheck=False)
                samples.resize((size, samples.shape[1]), refcheck=False)
            grid[n_samples:end] = g
            samples[n_samples:end] = rows[np.searchsorted(times, g, "left")]
            n_samples = end
        del times[:], flat[:-len(x)]

    def trajectory(done, t, flagged=False):
        flush()
        grid.resize(n_samples, refcheck=False)
        samples.resize((n_samples, samples.shape[1]), refcheck=False)
        return Trajectory(topo, kernel.name, grid, samples, done, t, flagged)

    ahead, source = _DrawAhead(rng), rng
    t = 0.0
    done = 0
    block = 8192
    cum = np.cumsum(rates)
    try:
        while done < cap_events:
            ahead.settle()
            exps, unis = rng.exponential(1.0, block), rng.random(block)
            if beta_g is not None:  # one block ahead; settling returns the tail
                alphas = ahead.draw(("beta", beta_g, beta_g), block)
            elif uniform_only:
                source = ahead.uniforms().__next__
            n = min(block, cap_events - done)
            if steady:
                # constant rates: the block's times and bonds come from array
                # calls that repeat the sequential sums below (t += e / total, the bond scan)
                ts = np.cumsum(np.r_[t, exps / total])[1:]
                stop = int(np.searchsorted(ts[:n], cap_time, "right"))
                picks = np.minimum(np.searchsorted(cum, unis[:stop] * total, "right"), len(rates) - 1)
                for b in picks.tolist():
                    i, j = bonds[b]
                    alpha = sample(x[i], x[j], source) if alphas is None else next(alphas)
                    s = x[i] + x[j]
                    x[i] = alpha * s
                    x[j] = s - alpha * s
                    flat.extend(x)
                times.extend(ts[:stop].tolist())
                done += stop
                if stop < n:
                    return trajectory(done, cap_time)
                t = times[-1]
                flush()
                continue
            exps, unis = exps.tolist(), unis.tolist()
            # chunks of _REFRESH_EVERY events, which end where done is a multiple of it
            for lo in range(0, n, _REFRESH_EVERY):
                hi = min(lo + _REFRESH_EVERY, n)
                logged = len(times)
                for e, u in zip(exps[lo:hi], unis[lo:hi]):
                    t += e / total
                    if t > cap_time:
                        return trajectory(done + len(times) - logged, cap_time)
                    # choose the firing bond proportionally to the current rates
                    u *= total
                    acc = 0.0
                    b = len(rates) - 1
                    for k, r in enumerate(rates):
                        acc += r
                        if u < acc:
                            b = k
                            break
                    i, j = bonds[b]
                    alpha = sample(x[i], x[j], source) if alphas is None else next(alphas)
                    s = x[i] + x[j]
                    x[i] = alpha * s
                    x[j] = s - alpha * s
                    for k, bi, bj in updates[b]:
                        total -= rates[k]
                        rates[k] = r = pref * rate(x[bi], x[bj])
                        total += r
                    times.append(t)
                    flat.extend(x)
                    if not total > 0:  # at the chunk's last event, the sum decides
                        break
                done += len(times) - logged
                if done % _REFRESH_EVERY == 0:
                    total = sum(rates)
                    if len(times) >= _LOG_EVENTS:
                        flush()
                if not total > 0:
                    return trajectory(done, t, flagged=True)
        return trajectory(done, t)
    finally:
        ahead.settle()


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

    def observable(states: np.ndarray) -> np.ndarray:
        states = np.atleast_2d(np.asarray(states, dtype=float))
        out = np.zeros(states.shape[0])
        for c, expo in zip(coeff, basis[1:]):
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


def _fft_length(k: int) -> int:
    """Smallest 2^a 3^b 5^c at least k >= 1: the least p 2^a >= k over odd
    parts p = 3^b 5^c with b and c at most the bit length of k."""
    e = range(k.bit_length() + 1)
    return min(p << (-(-k // p) - 1).bit_length() for p in (3 ** b * 5 ** c for b in e for c in e))


def _autocorrelation(y: np.ndarray, max_lag: int) -> np.ndarray:
    if y.ndim != 1:
        raise ValueError(f"the series must be 1-D, got shape {y.shape}")
    n = y.size
    if not 0 <= max_lag < n:
        raise ValueError(f"max_lag must lie in [0, {n}) for {n} samples, got {max_lag}")
    mean = y.mean()
    # a series that one block and its max_lag tail would cover is one block,
    # so no block is left with a few samples and a whole transform
    block = max(4 * max_lag, 1 << 14)
    block = n if n <= block + max_lag else block
    # zero padding to block + max_lag keeps lags up to max_lag free of wraparound
    m = _fft_length(block + max_lag)

    def lag_sums(start):
        # sum over the block's t of y_t y_{t+k}, k <= max_lag, from the block
        # and the max_lag samples after it
        span = y[start:start + block + max_lag] - mean
        f = np.fft.rfft(span[:block], m)
        if span.size > block:
            f = f.conj() * np.fft.rfft(span, m)
        else:  # nothing after the block: its power spectrum
            f *= f.conj()
        return np.fft.irfft(f, m)[: max_lag + 1]

    acf = functools.reduce(operator.iadd, map(lag_sums, range(0, n, block)))
    acf /= np.arange(n, n - max_lag - 1, -1)
    if not acf[0] > 0:  # a constant series has no decay to measure
        return np.full(acf.size, math.nan)
    return acf / acf[0]


def _fit_decay(rho: np.ndarray, dt: float, lo: float = 0.05, hi: float = 0.8):
    """Least-squares slope of log rho over the window where rho in [lo, hi].
    Returns (rate, window, r_squared) or None when no usable window exists."""
    below_hi = np.nonzero(rho < hi)[0]
    start = max(int(below_hi[0]), 1) if below_hi.size else 1
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
    time spans roughly seven lags.  ``n_events`` is the budget of the main
    run, which the sample buffer may cut short; the pilot adds up to five
    runs of min(30000, n_events // 10) events each, so ``n_events`` must be
    at least 10.  A pilot or main run with fewer than two samples gives a
    flagged NaN estimate.  ``observable`` maps (k, N) states to a (k,) array
    and must act row by row (other shapes are a ValueError): it is evaluated
    on every logged state, burn-in included, as the runs sample the grid.
    """
    _check_count("n_events", n_events, 10)

    def observe(rows):
        y = rows[:, 0] if observable is None else observable(rows)
        if not (isinstance(y, np.ndarray) and y.shape == rows.shape[:1]):
            raise ValueError(f"observable must return an array of shape {rows.shape[:1]} "
                             f"for {rows.shape[0]} rows, got shape {np.shape(y)}")
        return np.asarray(y, dtype=float)[:, None]

    def unfit(dt, n_samples):
        return GapEstimateMC(math.nan, math.nan, observable_name, (0, 0), 0.0,
                             dt, n_samples, flagged=True)

    # pilot: locate the relaxation time scale
    pilot_events = min(30_000, n_events // 10)
    pilot_dt = lam_hat = None
    for _ in range(5):
        pilot = _simulate(kernel, topo, law, rng, pilot_events, None, pilot_dt, observe,
                          grid_rows=_GRID_ROWS)
        if pilot.sample_times.size < 2:
            return unfit(math.nan, pilot.sample_times.size)
        dt0 = float(pilot.sample_times[1] - pilot.sample_times[0])
        y0 = pilot.samples[:, 0]
        del pilot
        idx = np.nonzero(_autocorrelation(y0, min(y0.size // 4, 4096)) < 1.0 / math.e)[0]
        del y0
        if idx.size and idx[0] > 2:
            lam_hat = 1.0 / (idx[0] * dt0)
            break
        # a crossing at lag <= 2: the grid is too coarse for the decay, so
        # refine it; no crossing in the lag window: too fine, so coarsen it
        pilot_dt = dt0 / 16.0 if idx.size else dt0 * 16.0
    if lam_hat is None:
        lam_hat = 1.0 / dt0
    sample_dt = 0.15 / lam_hat

    traj = _simulate(kernel, topo, law, rng, n_events, sample_dt * (_MAX_SAMPLES - 2),
                     sample_dt, observe)
    if traj.sample_times.size < 2:
        return unfit(sample_dt, traj.sample_times.size)
    dt = float(traj.sample_times[1] - traj.sample_times[0])
    n_run, total_time = traj.n_events, traj.total_time
    y = traj.samples[int(_BURN_IN * traj.sample_times.size):, 0]
    del traj  # the time grid; y keeps the sample column

    max_lag = min(y.size // 4, 1 << 14)
    rho = _autocorrelation(y, max_lag)
    fit = _fit_decay(rho, dt)
    if fit is None:
        return unfit(dt, y.size)
    value, window, r2 = fit

    batch_vals = []
    size = y.size // _N_BATCHES
    for b in range(_N_BATCHES):
        seg = y[b * size:(b + 1) * size]
        seg_rho = _autocorrelation(seg, min(seg.size // 4, max_lag))
        seg_fit = _fit_decay(seg_rho, dt)
        if seg_fit is not None:
            batch_vals.append(seg_fit[0])
    stderr = (float(np.std(batch_vals, ddof=1) / math.sqrt(len(batch_vals)))
              if len(batch_vals) >= 3 else math.nan)
    flagged = (r2 < _R2_THRESHOLD) or not np.isfinite(stderr)
    return GapEstimateMC(
        value=value, stderr=stderr, observable=observable_name, window=window,
        r_squared=r2, dt=dt, n_samples=int(y.size), flagged=flagged,
        diagnostics={
            "n_events": n_run,
            "total_time": total_time,
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
    _check_count("n_keep", n_keep, 1)
    from scipy.stats import beta as beta_dist, kstest  # slow to import; only this check uses it

    traj = _simulate(kernel, topo, law, rng, n_events, None, None, lambda rows: rows,
                     grid_rows=_GRID_ROWS)
    xs = traj.samples[::max(1, traj.samples.shape[0] // n_keep), 0]
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
    header = ",".join(["time"] + [f"x_{i + 1}" for i in range(traj.samples.shape[1])])
    with open(path, "w", newline="") as fh:
        np.savetxt(fh, np.column_stack([traj.sample_times, traj.samples]), fmt="%.17g",
                   delimiter=",", newline="\r\n", header=header, comments="")
