#!/usr/bin/env python3
"""Gillespie event rate and output fingerprint of ``simulate.run`` for the
seven simulator shapes of the perfbench mc-relax workload.

For each shape the script runs ``simulate.run`` from a fixed seed and prints
the events per second (best of ``--repeat`` runs) and a sha256 over the
samples, the sample times, the total time and the generator's next draw.
The digests depend only on the random stream, so running the script on two
commits checks in one go that the loop got faster and that it hands out the
same numbers:

    PYTHONPATH=src python3 scripts/event_rate.py --repeat 3

The bare runs take ``run``'s default grid, so their digests changed once, when
that grid went from about 2^18 samples whatever the budget to about one sample
per event (at most 2^18): across that change the samples differ while the
event stream, the total time and the generator's next draw do not, and runs
given the earlier grid's ``sample_dt`` (the budget's time at the initial total
rate over 2^18) are bit-identical.

With ``--estimates`` it does the same for the five autocorrelation estimates
of mc-relax (200k events, the degree-3 Galerkin observable): seconds per
estimate and a sha256 over value, stderr, window, R^2, sample count,
diagnostics and the generator's next draw.
"""

import argparse
import hashlib
import time

import numpy as np

from gapforge import simulate
from gapforge.measures import SimplexLaw
from gapforge.models import LONG_RANGE, NEAREST, Topology, make_kernel

# (model, m, gamma, N, topology, events): the five estimate kernels at the
# script's event budget, then the two bare runs
SHAPES = [
    ("kmp", 0.0, 1.0, 3, NEAREST, 100_000),
    ("kmp", 0.0, 1.0, 3, LONG_RANGE, 100_000),
    ("stick", 1.0, 1.0, 3, NEAREST, 100_000),
    ("gg3", 0.5, 1.5, 3, NEAREST, 100_000),
    ("star", 1.0, 1.0, 4, LONG_RANGE, 100_000),
    ("kmp", 0.0, 1.0, 16, LONG_RANGE, 100_000),
    ("gg2", 0.5, 1.0, 4, NEAREST, 10_000),
]
ESTIMATE_EVENTS = 200_000
OBSERVABLE_DEGREE = 3


def fingerprint(traj, rng) -> str:
    h = hashlib.sha256()
    h.update(traj.samples.tobytes())
    h.update(traj.sample_times.tobytes())
    h.update(repr((traj.n_events, traj.total_time, traj.flagged, rng.random())).encode())
    return h.hexdigest()


def estimate_fingerprint(est, rng) -> str:
    fields = (est.value, est.stderr, est.window, est.r_squared, est.n_samples,
              est.diagnostics, rng.random())
    return hashlib.sha256(repr(fields).encode()).hexdigest()


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--seed", type=int, default=17)
    ap.add_argument("--repeat", type=int, default=3, help="runs per shape; the fastest counts")
    ap.add_argument("--estimates", action="store_true",
                    help="time and fingerprint the five gap estimates instead of bare runs")
    args = ap.parse_args()
    if args.repeat < 1:
        ap.error("--repeat must be at least 1")

    shapes = SHAPES[:5] if args.estimates else SHAPES
    print(f"{'shape':32s} {'events':>8s} {'s' if args.estimates else 'events/s':>10s}  sha256")
    for idx, (name, m, g, n, kind, events) in enumerate(shapes):
        kern = make_kernel(name, m=m, gamma=g)
        law = SimplexLaw(kern.mechanical.gamma_rev, 1.0, n)
        topo = Topology(kind, n)
        if args.estimates:
            events = ESTIMATE_EVENTS
            obs = simulate.slowest_mode_observable(law, kern, OBSERVABLE_DEGREE, kind)
        best, digest = float("inf"), None
        for _ in range(args.repeat):
            rng = np.random.default_rng([args.seed, idx])
            start = time.perf_counter()
            if args.estimates:
                est = simulate.estimate_gap_autocorr(kern, topo, law, rng, n_events=events,
                                                     observable=obs)
            else:
                traj = simulate.run(kern, topo, law, rng, n_events=events)
            best = min(best, time.perf_counter() - start)
            digest = estimate_fingerprint(est, rng) if args.estimates else fingerprint(traj, rng)
        label = f"{name} m={m:g} gamma={g:g} N={n} {kind}"
        rate = best if args.estimates else events / best
        print(f"{label:32s} {events:8d} {rate:10.{3 if args.estimates else 0}f}  {digest}")


if __name__ == "__main__":
    main()
