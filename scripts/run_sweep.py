#!/usr/bin/env python3
"""Gap sweep over N for every kernel family, emitting the empirical
constants lambda * N^2 used in the chain lower-bound discussion."""

import argparse

from gapforge.galerkin import spectral_gap
from gapforge.measures import SimplexLaw
from gapforge.models import NEAREST, make_kernel

CASES = [
    ("star", 0.0, 1.0),
    ("star", 0.5, 1.0),
    ("star", 1.0, 1.0),
    ("stick", 1.0, 1.0),
    ("stick", 2.0, 1.0),
    ("gg3", 0.5, 1.5),
    ("gg2", 0.5, 1.0),
]


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--n-max", type=int, default=6)
    ap.add_argument("--degree", type=int, default=3)
    args = ap.parse_args()

    print(f"{'kernel':8s} {'m':>4s} {'gamma':>6s} {'N':>3s} {'gap':>12s} {'gap*N^2':>10s}")
    for name, m, g in CASES:
        kern = make_kernel(name, m=m, gamma=g)
        for n in range(2, args.n_max + 1):
            law = SimplexLaw(kern.gamma, 1.0, n)
            gap = spectral_gap(law, kern, args.degree, NEAREST).value
            print(f"{name:8s} {m:4.1f} {g:6.2f} {n:3d} {gap:12.6f} {gap * n * n:10.5f}")


if __name__ == "__main__":
    main()
