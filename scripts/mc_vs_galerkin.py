#!/usr/bin/env python3
"""Monte Carlo vs variational cross-check: estimate the gap from trajectory
autocorrelations and compare against the Galerkin plateau."""

import argparse

import numpy as np

from gapforge import simulate
from gapforge.galerkin import spectral_gap
from gapforge.measures import SimplexLaw
from gapforge.models import LONG_RANGE, NEAREST, Topology, make_kernel

CASES = [
    ("star", 0.0, 1.0, 2, NEAREST),
    ("star", 0.0, 1.0, 2, LONG_RANGE),
    ("star", 0.0, 1.0, 3, NEAREST),
    ("star", 0.0, 1.0, 3, LONG_RANGE),
    ("stick", 1.0, 1.0, 3, NEAREST),
]


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--events", type=int, default=2_000_000)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    print(f"{'kernel':8s} {'N':>3s} {'topology':>10s} {'galerkin':>10s} "
          f"{'mc':>10s} {'stderr':>9s} {'z':>6s}")
    for idx, (name, m, g, n, topo_kind) in enumerate(CASES):
        kern = make_kernel(name, m=m, gamma=g)
        law = SimplexLaw(kern.mechanical.gamma_rev, 1.0, n)
        topo = Topology(topo_kind, n)
        gal = spectral_gap(law, kern, 6, topo_kind).value
        obs = simulate.slowest_mode_observable(law, kern, 3, topo_kind)
        rng = np.random.default_rng(args.seed + idx)
        est = simulate.estimate_gap_autocorr(kern, topo, law, rng,
                                             n_events=args.events,
                                             observable=obs,
                                             observable_name="galerkin_mode")
        z = abs(est.value - gal) / est.stderr
        flag = "  FLAGGED" if est.flagged else ""
        print(f"{name:8s} {n:3d} {topo_kind:>10s} {gal:10.5f} "
              f"{est.value:10.5f} {est.stderr:9.5f} {z:6.2f}{flag}")


if __name__ == "__main__":
    main()
