#!/usr/bin/env python3
"""Gillespie event cost and output fingerprint of ``simulate.run`` for the
seven simulator shapes of the perfbench mc-relax workload.

For each shape the script runs ``simulate.run`` ``--repeat`` times from a
fixed seed and prints the microseconds per event (min and median over the
runs) and a sha256 over the samples, the sample times, the total time and the
generator's next draw.  The digests depend only on the random stream, so they
check that a faster loop hands out the same numbers:

    PYTHONPATH=src python3 scripts/event_rate.py --repeat 3

With ``--against OTHER_CHECKOUT`` the script copies OTHER's ``src/gapforge``
to a temporary package, imports both copies into one process and alternates
their runs shape by shape (which side goes first alternates too), so that a
machine whose speed drifts slows both sides alike.  It prints the min and
median for both sides and whether every digest of both sides is equal:

    PYTHONPATH=src python3 scripts/event_rate.py --repeat 21 --against ../gapforge-parent

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
import contextlib
import hashlib
import importlib
import pathlib
import shutil
import statistics
import sys
import tempfile
import time

import numpy as np

from gapforge.models import LONG_RANGE, NEAREST

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
OTHER = "gapforge_against"  # the package name the other checkout's copy takes


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


@contextlib.contextmanager
def other_package(checkout: pathlib.Path):
    """The name under which ``checkout``'s src/gapforge, copied to a temporary
    directory, imports beside this one; its modules are dropped on exit."""
    with tempfile.TemporaryDirectory() as tmp:
        shutil.copytree(checkout / "src" / "gapforge", pathlib.Path(tmp, OTHER),
                        ignore=shutil.ignore_patterns("__pycache__"))
        sys.path.insert(0, tmp)
        try:
            yield OTHER
        finally:
            sys.path.remove(tmp)
            for name in [n for n in sys.modules if n.split(".")[0] == OTHER]:
                del sys.modules[name]


def runner(package: str, idx: int, shape, seed: int, estimates: bool):
    """One timed run of ``shape`` by ``package``'s simulate: a function of no
    arguments returning (seconds, digest), always from the same seed."""
    simulate = importlib.import_module(package + ".simulate")
    models = importlib.import_module(package + ".models")
    measures = importlib.import_module(package + ".measures")
    name, m, g, n, kind, events = shape
    kern = models.make_kernel(name, m=m, gamma=g)
    law = measures.SimplexLaw(measures.GammaShape(g), 1.0, n)  # read by either checkout
    topo = models.Topology(kind, n)
    if estimates:
        obs = simulate.slowest_mode_observable(law, kern, OBSERVABLE_DEGREE, kind)

    def timed():
        rng = np.random.default_rng([seed, idx])
        start = time.perf_counter()
        if estimates:
            est = simulate.estimate_gap_autocorr(kern, topo, law, rng, n_events=events,
                                                 observable=obs)
            return time.perf_counter() - start, estimate_fingerprint(est, rng)
        traj = simulate.run(kern, topo, law, rng, n_events=events)
        return time.perf_counter() - start, fingerprint(traj, rng)

    return timed


def main(argv=None) -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--seed", type=int, default=17)
    ap.add_argument("--repeat", type=int, default=3, help="runs per shape and side")
    ap.add_argument("--estimates", action="store_true",
                    help="time and fingerprint the five gap estimates instead of bare runs")
    ap.add_argument("--against", type=pathlib.Path, metavar="OTHER_CHECKOUT",
                    help="alternate each shape's runs with those of another checkout")
    args = ap.parse_args(argv)
    if args.repeat < 1:
        ap.error("--repeat must be at least 1")
    if args.against and not (args.against / "src" / "gapforge" / "simulate.py").is_file():
        ap.error(f"{args.against} holds no src/gapforge/simulate.py")

    unit = "s" if args.estimates else "us/event"
    shapes = [s[:5] + (ESTIMATE_EVENTS,) for s in SHAPES[:5]] if args.estimates else SHAPES
    with contextlib.ExitStack() as stack:
        packages = ["gapforge"]
        head = f"{'shape (' + unit + ')':32s} {'events':>8s} {'min':>10s} {'median':>10s}"
        if args.against:
            packages.append(stack.enter_context(other_package(args.against.resolve())))
            head += f" {'other min':>10s} {'median':>10s}"
        print(head + "  sha256" + ("  other" if args.against else ""))
        for idx, shape in enumerate(shapes):
            sides = [runner(p, idx, shape, args.seed, args.estimates) for p in packages]
            costs, digests = [[] for _ in sides], [set() for _ in sides]
            for r in range(args.repeat):
                for k in (range(len(sides)) if r % 2 == 0 else reversed(range(len(sides)))):
                    seconds, digest = sides[k]()
                    costs[k].append(seconds if args.estimates else seconds / shape[5] * 1e6)
                    digests[k].add(digest)
            name, m, g, n, kind, events = shape
            line = f"{name} m={m:g} gamma={g:g} N={n} {kind}"
            line = f"{line:32s} {events:8d}"
            for c in costs:
                line += f" {min(c):10.3f} {statistics.median(c):10.3f}"
            line += "  " + " ".join(sorted(digests[0]))
            if args.against:
                line += "  " + ("equal" if digests[0] == digests[1] and len(digests[0]) == 1
                                else "DIFFER " + " ".join(sorted(digests[1])))
            print(line, flush=True)


if __name__ == "__main__":
    main()
