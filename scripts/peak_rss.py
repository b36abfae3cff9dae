#!/usr/bin/env python3
"""Resident-memory high-water mark of the Galerkin checks or of the Monte
Carlo runs, call by call, in one process.

The ``verify`` section (the default) runs ``bounds.run_all_checks(fast=True)``
with each of its check calls wrapped, then the appendix suite; the
``theorems`` section runs ``bounds.run_all_checks(fast=False)``, the full
``verify --suite theorems``, the same way.  The ``mc``
section runs the seven shapes of the perfbench mc-relax workload in the order
of ``MC_SHAPES``: five autocorrelation gap estimates on the Galerkin
slow-mode observable, then two bare ``simulate.run`` calls, each from the
generator ``default_rng([seed, index])``; each output is held until the next
call returns, as the benchmark worker holds it.  The ``estimate`` section
runs one estimate that fills most of the 2^21-sample buffer: kmp N=3 nearest
at 1.5M events on the degree-3 slow-mode observable, from
``default_rng(seed)`` (1,887,435 samples at seed 1).  After the imports and
after each call the script prints the process's peak RSS (``ru_maxrss``) and
the rise that call caused. The call with the largest rise is the one that
sets the peak:

    PYTHONPATH=src python3 scripts/peak_rss.py
    PYTHONPATH=src python3 scripts/peak_rss.py theorems
    PYTHONPATH=src python3 scripts/peak_rss.py mc --seed 3001
    PYTHONPATH=src python3 scripts/peak_rss.py estimate --seed 1
"""

import argparse
import functools
import os
import resource
import tempfile

import numpy as np

from gapforge import bounds, cli, simulate
from gapforge.measures import GammaShape, SimplexLaw
from gapforge.models import LONG_RANGE, NEAREST, Topology, make_kernel

# (model, m, gamma, N, topology, events, estimate): the five estimates of the
# mc-relax workload at its event budget, then its two bare runs
MC_SHAPES = [
    ("kmp", 0.0, 1.0, 3, NEAREST, 200_000, True),
    ("kmp", 0.0, 1.0, 3, LONG_RANGE, 200_000, True),
    ("stick", 1.0, 1.0, 3, NEAREST, 200_000, True),
    ("gg3", 0.5, 1.5, 3, NEAREST, 200_000, True),
    ("star", 1.0, 1.0, 4, LONG_RANGE, 200_000, True),
    ("kmp", 0.0, 1.0, 16, LONG_RANGE, 100_000, False),
    ("gg2", 0.5, 1.0, 4, NEAREST, 3_000, False),
]
OBSERVABLE_DEGREE = 3
ESTIMATE_EVENTS = 1_500_000


def peak_mb() -> float:
    """Peak RSS of this process so far, in MB (``ru_maxrss`` is in kB on Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def report(label: str, last: list) -> None:
    now = peak_mb()
    print(f"{now:9.1f} {now - last[0]:+8.1f}  {label}", flush=True)
    last[0] = now


def checks_section(last: list, fast: bool) -> None:
    def traced(name, fn):
        @functools.wraps(fn)
        def call(*args, **kwargs):
            try:
                return fn(*args, **kwargs)
            finally:
                shown = [repr(a) for a in args] + [f"{k}={v!r}" for k, v in kwargs.items()]
                report(f"{name}({', '.join(shown)})", last)
        return call

    checks = {name: fn for name, fn in vars(bounds).items()
              if name.startswith("check_") and callable(fn)}
    for name, fn in checks.items():
        setattr(bounds, name, traced(name, fn))
    try:
        bounds.run_all_checks(fast=fast)
    finally:
        for name, fn in checks.items():
            setattr(bounds, name, fn)


def verify_section(last: list) -> None:
    checks_section(last, fast=True)
    with tempfile.TemporaryDirectory() as tmp:
        cli.main(["verify", "--suite", "appendix", "--out", os.path.join(tmp, "appendix.json")])
    report("verify --suite appendix", last)


def mc_section(last: list, seed: int) -> None:
    for idx, (name, m, g, n, kind, events, estimate) in enumerate(MC_SHAPES):
        kern = make_kernel(name, m=m, gamma=g)
        law = SimplexLaw(GammaShape(g), 1.0, n)
        topo = Topology(kind, n)
        rng = np.random.default_rng([seed, idx])
        if estimate:
            obs = simulate.slowest_mode_observable(law, kern, OBSERVABLE_DEGREE, kind)
            held = simulate.estimate_gap_autocorr(kern, topo, law, rng, n_events=events,
                                                  observable=obs, observable_name="galerkin_mode")
            label = f"estimate_gap_autocorr n_samples={held.n_samples}"
        else:
            held = simulate.run(kern, topo, law, rng, n_events=events)
            label = f"run samples={held.samples.shape}"
        report(f"{name} m={m:g} gamma={g:g} N={n} {kind} events={events}: {label}", last)


def estimate_section(last: list, seed: int) -> None:
    kern = make_kernel("kmp")
    law = SimplexLaw(GammaShape(1.0), 1.0, 3)
    obs = simulate.slowest_mode_observable(law, kern, OBSERVABLE_DEGREE, NEAREST)
    report("kmp N=3 nearest observable", last)
    est = simulate.estimate_gap_autocorr(kern, Topology(NEAREST, 3), law,
                                         np.random.default_rng(seed), n_events=ESTIMATE_EVENTS,
                                         observable=obs, observable_name="galerkin_mode")
    report(f"estimate_gap_autocorr events={ESTIMATE_EVENTS}: n_samples={est.n_samples} "
           f"value={est.value!r}", last)


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("section", nargs="?", choices=("verify", "theorems", "mc", "estimate"),
                    default="verify")
    ap.add_argument("--seed", type=int, default=None,
                    help="generator seed of the mc (default 3001) or estimate (default 1) section")
    args = ap.parse_args()
    last = [peak_mb()]
    print(f"{'peak MB':>9s} {'rise':>8s}  after")
    report("imports", last)
    if args.section == "verify":
        verify_section(last)
    elif args.section == "theorems":
        checks_section(last, fast=False)
    elif args.section == "mc":
        mc_section(last, 3001 if args.seed is None else args.seed)
    else:
        estimate_section(last, 1 if args.seed is None else args.seed)


if __name__ == "__main__":
    main()
