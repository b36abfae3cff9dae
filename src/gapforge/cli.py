"""Command-line driver: configuration, execution, and CSV/JSON emission.

Exit codes: 0 success, 1 config error, 2 numerical-diagnostic failure
(non-convergence / ill-conditioning), 3 verification failure (an inequality
violated).
"""

from __future__ import annotations

import argparse
import concurrent.futures
import csv
import itertools
import json
import os
import sys
import typing
from dataclasses import asdict, dataclass, fields

import numpy as np

from . import appendix, bounds, simulate
from .galerkin import kappa, kappa_tilde, spectral_gap, two_site_constant
from .measures import SimplexLaw
from .models import LONG_RANGE, NEAREST, Topology, make_kernel

SCHEMA_VERSION = 1

CONFIG_ERROR = 1
NUMERICAL_ERROR = 2
VERIFICATION_FAILURE = 3

SWEEP_COLUMNS = ("model", "m", "gamma", "E", "N", "topology", "method",
                 "degree_or_budget", "gap", "err", "seed")


def fmt(x: float) -> str:
    return f"{float(x):.17g}"


@dataclass
class ExperimentConfig:
    command: str = "gap"
    model: str = "star"
    m: float | None = None  # unset: the kernel's own value
    gamma: float | None = None
    energy: float = 1.0
    sites: int = 3
    topology: str = "long-range"
    method: str = "galerkin"
    degree: int = 6
    budget: int = 1_000_000
    seed: int | None = None
    output: str | None = None

    @classmethod
    def from_file(cls, path: str) -> "ExperimentConfig":
        with open(path) as fh:
            raw = json.load(fh)
        if not isinstance(raw, dict):
            raise ValueError(f"config {path}: top level must be a JSON object")
        if raw.pop("schema", None) != SCHEMA_VERSION:
            raise ValueError(f"config {path}: missing or unsupported schema version")
        hints = typing.get_type_hints(cls)
        unknown = set(raw) - set(hints)
        if unknown:
            raise ValueError(f"config {path}: unknown keys {sorted(unknown)}")
        for key, val in raw.items():
            types = typing.get_args(hints[key]) or (hints[key],)
            # JSON integers stand for floats; booleans stand for nothing
            ok = isinstance(val, types) or (float in types and isinstance(val, int))
            if isinstance(val, bool) or not ok:
                names = " or ".join(t.__name__ for t in types)
                raise ValueError(f"config {path}: {key} must be {names}, got {val!r}")
        return cls(**raw)

    def apply_flags(self, args: argparse.Namespace) -> None:
        for f in fields(self):
            val = getattr(args, f.name, None)
            if val is not None:
                setattr(self, f.name, val)

    def metadata(self) -> dict:
        meta = asdict(self)
        meta["schema"] = SCHEMA_VERSION
        return meta


def master_seed(cfg: ExperimentConfig) -> int:
    if cfg.seed is not None:
        return cfg.seed
    env = os.environ.get("GAPFORGE_SEED")
    return int(env) if env else 0


def _topology(name: str, sites: int) -> Topology:
    key = name.replace("-", "").replace("_", "").lower()
    if key in ("longrange", "lr", "complete"):
        return Topology(LONG_RANGE, sites)
    if key in ("nearest", "nn", "chain", "nearestneighbor"):
        return Topology(NEAREST, sites)
    raise ValueError(f"unknown topology {name!r}")


# ---------------------------------------------------------------------------
# subcommands

def _kernel_and_law(cfg: ExperimentConfig):
    """The configured kernel and its reversible law; (m, gamma) belong to the kernel."""
    kern = make_kernel(cfg.model, m=cfg.m, gamma=cfg.gamma)
    return kern, SimplexLaw(kern.mechanical.gamma_rev, cfg.energy, cfg.sites)


def compute_gap_row(cfg: ExperimentConfig) -> dict:
    kern, law = _kernel_and_law(cfg)
    topo = _topology(cfg.topology, cfg.sites)
    if cfg.method == "galerkin":
        res = spectral_gap(law, kern, cfg.degree, topo.kind)
        gap, err, dob = res.value, 0.0, cfg.degree
    elif cfg.method == "mc":
        rng = np.random.default_rng(master_seed(cfg))
        est = simulate.estimate_gap_autocorr(kern, topo, law, rng, n_events=cfg.budget)
        if est.flagged:
            raise ArithmeticError(
                f"autocorrelation fit did not converge (R^2 = {est.r_squared:.3f})")
        gap, err, dob = est.value, est.stderr, cfg.budget
    else:
        raise ValueError(f"unknown method {cfg.method!r}")
    return {
        "model": kern.name, "m": kern.mechanical.m,
        "gamma": kern.mechanical.gamma_rev.gamma, "E": cfg.energy,
        "N": cfg.sites, "topology": cfg.topology, "method": cfg.method,
        "degree_or_budget": dob, "gap": gap, "err": err, "seed": master_seed(cfg),
    }


def cmd_gap(cfg: ExperimentConfig, args: argparse.Namespace) -> int:
    row = compute_gap_row(cfg)
    print(fmt(row["gap"]))
    if row["err"]:
        print(f"stderr {fmt(row['err'])}")
    if cfg.output:
        _write_rows(cfg.output, [row], cfg)
    return 0


def _parse_grid(spec: str | None, default) -> list:
    if spec is None:
        return list(default)
    return [float(tok) for tok in spec.split(",") if tok]


def _write_rows(path: str, rows: list[dict], cfg: ExperimentConfig) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(SWEEP_COLUMNS)
        for row in rows:
            writer.writerow([
                row["model"], fmt(row["m"]), fmt(row["gamma"]), fmt(row["E"]),
                row["N"], row["topology"], row["method"], row["degree_or_budget"],
                fmt(row["gap"]), fmt(row["err"]), row["seed"],
            ])
    meta_path = os.path.splitext(path)[0] + ".meta.json"
    with open(meta_path, "w") as fh:
        json.dump(cfg.metadata(), fh, indent=2, sort_keys=True)
        fh.write("\n")


def _sweep_job(payload: dict) -> dict:
    return compute_gap_row(ExperimentConfig(**payload))


def cmd_sweep(cfg: ExperimentConfig, args: argparse.Namespace) -> int:
    e_grid = _parse_grid(args.energies, [cfg.energy])
    n_grid = [int(n) for n in _parse_grid(args.sites_grid, [float(cfg.sites)])]
    m_grid = _parse_grid(args.m_grid, [cfg.m])
    g_grid = _parse_grid(args.gamma_grid, [cfg.gamma])
    jobs = []
    for e, n, m, g in itertools.product(e_grid, n_grid, m_grid, g_grid):
        sub = ExperimentConfig(**{**asdict(cfg), "energy": e, "sites": n,
                                  "m": m, "gamma": g, "seed": master_seed(cfg)})
        jobs.append(asdict(sub))
    if args.jobs > 1:
        with concurrent.futures.ProcessPoolExecutor(max_workers=args.jobs) as pool:
            rows = list(pool.map(_sweep_job, jobs))
    else:
        rows = [_sweep_job(j) for j in jobs]
    rows.sort(key=lambda r: (r["model"], r["m"], r["gamma"], r["E"], r["N"]))
    out = cfg.output or "sweep.csv"
    os.makedirs(os.path.dirname(out) or ".", exist_ok=True)
    _write_rows(out, rows, cfg)
    print(f"{len(rows)} rows -> {out}")
    return 0


def cmd_kappa(cfg: ExperimentConfig, args: argparse.Namespace) -> int:
    kern = make_kernel(cfg.model, m=cfg.m, gamma=cfg.gamma)
    if kern.name not in ("star", "kmp"):
        raise ValueError(f"kappa is defined for the star family, not {kern.name!r}")
    m, g = kern.mechanical.m, kern.mechanical.gamma_rev.gamma
    k = kappa(m, g, cfg.degree)
    kt = kappa_tilde(m, g, cfg.degree)
    report = {"m": m, "gamma": g, "degree": cfg.degree,
              "kappa": k, "kappa_tilde": kt}
    if m == 1.0:
        bracket = appendix.kappa_tilde_1_bracket(g, degree=cfg.degree,
                                                 strict=False)
        report["certificate_lower"] = bracket.lower
        report["galerkin_upper"] = bracket.upper
        report["bracket_consistent"] = bracket.lower <= bracket.upper + 1e-8
        report["lower_exceeds_one_third"] = bracket.lower > 1.0 / 3.0
    print(json.dumps(report, indent=2, sort_keys=True))
    if cfg.output:
        with open(cfg.output, "w") as fh:
            json.dump(report, fh, indent=2, sort_keys=True)
            fh.write("\n")
    return 0


def cmd_two_site(cfg: ExperimentConfig, args: argparse.Namespace) -> int:
    kern = make_kernel(cfg.model, m=cfg.m, gamma=cfg.gamma)
    val = two_site_constant(kern, degree=args.two_site_degree)
    print(fmt(val))
    return 0


def cmd_verify(cfg: ExperimentConfig, args: argparse.Namespace) -> int:
    suite = args.suite
    report: dict = {"schema": SCHEMA_VERSION, "suite": suite, "checks": []}
    failed = False
    if suite in ("appendix", "all"):
        gamma_grid = (1.0 / 3.0, 0.4, 2.0 / 3.0, 1.0, 1.5, 2.0, 3.0)
        for g in gamma_grid:
            cert = appendix.verify_certificates(g, n_max=args.n_max)
            ok = (cert["ok"] and abs(cert["limit_a"] - 0.5) < 1e-2
                  and abs(cert["limit_b"] - 0.5) < 1e-2)
            report["checks"].append({"claim": "certificate-sup", "pass": ok, **cert})
            failed |= not ok
        for rec in appendix.verify_prop_a(1.0, n_max=args.n_max):
            report["checks"].append(rec)
            failed |= not rec["pass"]
        for rec in appendix.verify_prop_b(1.0, n_max=args.n_max):
            report["checks"].append(rec)
            failed |= not rec["pass"]
        for rec in appendix.monotonicity_report(
                (0.2, 1.0 / 3.0, 0.5, 2.0 / 3.0, 1.0, 2.0, 3.0), n_max=50):
            ok = rec["violations"] == 0
            report["checks"].append({"claim": rec["fact"], "pass": ok, **rec})
            failed |= not ok
        for g in (0.4, 2.0 / 3.0, 1.0, 1.5, 2.0, 3.0):
            bracket = appendix.kappa_tilde_1_bracket(g, n_max=args.n_max,
                                                     strict=False)
            ok = (bracket.lower > 1.0 / 3.0
                  and bracket.lower <= bracket.upper + 1e-8
                  and bracket.upper - bracket.lower < 5e-3)
            report["checks"].append({
                "claim": "kappa-tilde-bracket", "gamma": g,
                "lower": bracket.lower, "upper": bracket.upper, "pass": ok,
            })
            failed |= not ok
    if suite in ("theorems", "all"):
        for check in bounds.run_all_checks(fast=args.fast):
            report["checks"].append(check.to_record())
            failed |= not check.passed
    report["pass"] = not failed
    text = json.dumps(report, indent=2, sort_keys=True, default=float)
    if cfg.output:
        with open(cfg.output, "w") as fh:
            fh.write(text + "\n")
        _write_summary_csv(os.path.splitext(cfg.output)[0] + ".csv", report)
    n = len(report["checks"])
    bad = sum(not c.get("pass", True) for c in report["checks"])
    print(f"{n} checks, {bad} failures")
    if not cfg.output:
        print(text)
    return VERIFICATION_FAILURE if failed else 0


def _write_summary_csv(path: str, report: dict) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["claim", "params", "lhs", "rhs", "margin", "pass"])
        for c in report["checks"]:
            writer.writerow([
                c.get("claim", c.get("lemma", "")),
                json.dumps({k: v for k, v in c.items()
                            if k not in ("claim", "lemma", "lhs", "rhs",
                                         "margin", "pass", "note")},
                           sort_keys=True, default=float),
                fmt(c["lhs"]) if "lhs" in c else "",
                fmt(c["rhs"]) if "rhs" in c else "",
                fmt(c["margin"]) if "margin" in c else "",
                c.get("pass", ""),
            ])


def cmd_simulate(cfg: ExperimentConfig, args: argparse.Namespace) -> int:
    kern, law = _kernel_and_law(cfg)
    rng = np.random.default_rng(master_seed(cfg))
    traj = simulate.run(kern, _topology(cfg.topology, cfg.sites), law, rng,
                        n_events=cfg.budget, sample_dt=args.sample_dt)
    if traj.flagged:
        print("trajectory flagged: dynamics froze (zero total rate)",
              file=sys.stderr)
        return NUMERICAL_ERROR
    out = cfg.output or "trajectory.csv"
    simulate.trajectory_to_csv(traj, out)
    print(f"{traj.samples.shape[0]} samples, {traj.n_events} events -> {out}")
    return 0


def cmd_path(cfg: ExperimentConfig, args: argparse.Namespace) -> int:
    path = bounds.build_moving_path(args.i, args.j)
    print(" ".join(str(s) for s in path.sites))
    for a, b in path.swaps:
        print(f"swap {a} {b}")
    return 0


# ---------------------------------------------------------------------------
# argument surface

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gapforge",
        description="Spectral-gap laboratory for stochastic energy exchange chains",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="JSON config file (flags override)")
        p.add_argument("--model", choices=["star", "kmp", "gg2", "gg3", "stick"])
        p.add_argument("--m", type=float)
        p.add_argument("--gamma", type=float)
        p.add_argument("--E", dest="energy", type=float)
        p.add_argument("--N", dest="sites", type=int)
        p.add_argument("--topology", choices=["nearest", "long-range"])
        p.add_argument("--method", choices=["galerkin", "mc"])
        p.add_argument("--degree", type=int)
        p.add_argument("--budget", type=int, help="MC event budget")
        p.add_argument("--seed", type=int)
        p.add_argument("--out", dest="output")

    p = sub.add_parser("gap", help="compute a single spectral gap")
    common(p)

    p = sub.add_parser("sweep", help="grid sweep over E, N, m, gamma")
    common(p)
    p.add_argument("--energies", help="comma-separated E grid")
    p.add_argument("--sites-grid", help="comma-separated N grid")
    p.add_argument("--m-grid", help="comma-separated m grid")
    p.add_argument("--gamma-grid", help="comma-separated gamma grid")
    p.add_argument("--jobs", type=int, default=1)

    p = sub.add_parser("kappa", help="three-site constants, both routes")
    common(p)

    p = sub.add_parser("two-site", help="two-site constant C~")
    common(p)
    p.add_argument("--two-site-degree", type=int, default=30)

    p = sub.add_parser("verify", help="lemma / theorem verification suites")
    common(p)
    p.add_argument("--suite", choices=["appendix", "theorems", "all"],
                   default="all")
    p.add_argument("--n-max", type=int, default=200)
    p.add_argument("--fast", action="store_true",
                   help="reduced grids for smoke runs")

    p = sub.add_parser("simulate", help="dump a sampled trajectory to CSV")
    common(p)
    p.add_argument("--sample-dt", type=float)

    p = sub.add_parser("path", help="moving-path construction for a site pair")
    common(p)
    p.add_argument("--i", type=int, required=True)
    p.add_argument("--j", type=int, required=True)
    return parser


DISPATCH = {
    "gap": cmd_gap,
    "sweep": cmd_sweep,
    "kappa": cmd_kappa,
    "two-site": cmd_two_site,
    "verify": cmd_verify,
    "simulate": cmd_simulate,
    "path": cmd_path,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return CONFIG_ERROR if exc.code not in (0, None) else 0
    try:
        cfg = (ExperimentConfig.from_file(args.config)
               if getattr(args, "config", None) else ExperimentConfig())
        cfg.apply_flags(args)
        cfg.command = args.command
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return CONFIG_ERROR
    try:
        return DISPATCH[args.command](cfg, args)
    except ValueError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return CONFIG_ERROR
    except (np.linalg.LinAlgError, ArithmeticError,
            appendix.BracketInversionError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return NUMERICAL_ERROR


if __name__ == "__main__":
    raise SystemExit(main())
