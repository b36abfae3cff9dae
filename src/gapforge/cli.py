"""Command-line driver: configuration, execution, and CSV/JSON emission.

``verify`` runs the suites of ``SUITES``; their claims and pass thresholds
live in ``appendix.run_checks`` and ``bounds.run_all_checks``.

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
_FLOAT_COLUMNS = {"m", "gamma", "E", "gap", "err"}  # written at 17 significant digits


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
    topology: str = LONG_RANGE
    method: str = "galerkin"
    degree: int = 6
    budget: int = 1_000_000
    seed: int = 0
    output: str | None = None
    # sweep's comma-separated grids; unset, the single value above
    energies: str | None = None
    sites_grid: str | None = None
    m_grid: str | None = None
    gamma_grid: str | None = None

    @classmethod
    def from_file(cls, path: str, command: str, keys: set[str]) -> "ExperimentConfig":
        """The config a JSON file sets for ``command``.  ``keys`` are the
        settings the command takes a flag for; any other key is refused rather
        than ignored, and so is a file written for another command.  A null
        value leaves its setting unset."""
        with open(path) as fh:
            raw = json.load(fh)
        if not isinstance(raw, dict):
            raise ValueError(f"config {path}: top level must be a JSON object")
        raw = {key: val for key, val in raw.items() if val is not None}
        if raw.pop("schema", None) != SCHEMA_VERSION:
            raise ValueError(f"config {path}: missing or unsupported schema version")
        hints = typing.get_type_hints(cls)
        unknown = set(raw) - set(hints)
        if unknown:
            raise ValueError(f"config {path}: unknown keys {sorted(unknown)}")
        unread = set(raw) - keys
        if unread:
            raise ValueError(f"config {path}: {command} takes no flag for keys {sorted(unread)}")
        if raw.get("command", command) != command:
            raise ValueError(f"config {path}: written for command {raw['command']!r}, not {command!r}")
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


# ---------------------------------------------------------------------------
# subcommands

def _kernel_and_law(cfg: ExperimentConfig):
    """The configured kernel and its reversible law; (m, gamma) belong to the kernel."""
    kern = make_kernel(cfg.model, m=cfg.m, gamma=cfg.gamma)
    return kern, SimplexLaw(kern.gamma, cfg.energy, cfg.sites)


def compute_gap_row(cfg: ExperimentConfig) -> dict:
    kern, law = _kernel_and_law(cfg)
    topo = Topology(cfg.topology, cfg.sites)
    if cfg.method == "galerkin":
        res = spectral_gap(law, kern, cfg.degree, topo.kind)
        gap, err, dob = res.value, 0.0, cfg.degree
    elif cfg.method == "mc":
        rng = np.random.default_rng(cfg.seed)
        est = simulate.estimate_gap_autocorr(kern, topo, law, rng, n_events=cfg.budget)
        if est.flagged:
            raise ArithmeticError(
                f"autocorrelation fit did not converge (R^2 = {est.r_squared:.3f})")
        gap, err, dob = est.value, est.stderr, cfg.budget
    else:
        raise ValueError(f"unknown method {cfg.method!r}")
    return {
        "model": kern.name, "m": kern.m,
        "gamma": kern.gamma.gamma, "E": cfg.energy,
        "N": cfg.sites, "topology": cfg.topology, "method": cfg.method,
        "degree_or_budget": dob, "gap": gap, "err": err, "seed": cfg.seed,
    }


def cmd_gap(cfg: ExperimentConfig, args: argparse.Namespace) -> int:
    row = compute_gap_row(cfg)
    print(fmt(row["gap"]))
    if row["err"]:
        print(f"stderr {fmt(row['err'])}")
    if cfg.output:
        _write_rows(cfg.output, [row], cfg)
    return 0


def _parse_grid(flag: str, spec: str | None, default, kind=float) -> list:
    if spec is None:
        return list(default)
    grid = []
    for tok in filter(None, spec.split(",")):
        try:
            grid.append(kind(tok))
        except ValueError:
            raise ValueError(f"{flag} entries must be {kind.__name__}s, got {tok!r}") from None
    if not grid:
        raise ValueError(f"{flag} lists no values, got {spec!r}")
    return grid


def _write_rows(path: str, rows: list[dict], cfg: ExperimentConfig) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(SWEEP_COLUMNS)
        writer.writerows([fmt(row[c]) if c in _FLOAT_COLUMNS else row[c] for c in SWEEP_COLUMNS]
                         for row in rows)
    meta_path = os.path.splitext(path)[0] + ".meta.json"
    with open(meta_path, "w") as fh:
        json.dump(cfg.metadata(), fh, indent=2, sort_keys=True)
        fh.write("\n")


def _sweep_job(payload: dict) -> dict:
    return compute_gap_row(ExperimentConfig(**payload))


def cmd_sweep(cfg: ExperimentConfig, args: argparse.Namespace) -> int:
    if args.jobs < 1:
        raise ValueError(f"--jobs must be at least 1, got {args.jobs}")
    e_grid = _parse_grid("--energies", cfg.energies, [cfg.energy])
    n_grid = _parse_grid("--sites-grid", cfg.sites_grid, [cfg.sites], int)
    m_grid = _parse_grid("--m-grid", cfg.m_grid, [cfg.m])
    g_grid = _parse_grid("--gamma-grid", cfg.gamma_grid, [cfg.gamma])
    jobs = [{**asdict(cfg), "energy": e, "sites": n, "m": m, "gamma": g}
            for e, n, m, g in itertools.product(e_grid, n_grid, m_grid, g_grid)]
    # the pool starts every worker at once, each importing scipy
    workers = min(args.jobs, len(jobs), os.cpu_count() or 1)
    if workers > 1:
        with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
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
    m, g = kern.m, kern.gamma.gamma
    report = {"m": m, "gamma": g, "degree": cfg.degree, "kappa": kappa(m, g, cfg.degree)}
    if m == 1.0:  # the bracket's upper side is kappa~ itself
        bracket = appendix.kappa_tilde_1_bracket(g, degree=cfg.degree, strict=False)
        report.update(kappa_tilde=bracket.upper, certificate_lower=bracket.lower,
                      galerkin_upper=bracket.upper, bracket_consistent=bracket.consistent,
                      lower_exceeds_one_third=bracket.lower > 1.0 / 3.0)
    else:
        report["kappa_tilde"] = kappa_tilde(m, g, cfg.degree)
    text = json.dumps(report, indent=2, sort_keys=True)
    print(text)
    if cfg.output:
        with open(cfg.output, "w") as fh:
            fh.write(text + "\n")
    return 0


def cmd_two_site(cfg: ExperimentConfig, args: argparse.Namespace) -> int:
    kern = make_kernel(cfg.model, m=cfg.m, gamma=cfg.gamma)
    val = two_site_constant(kern, degree=args.two_site_degree)
    print(fmt(val))
    return 0


# each verify suite's runner, from the parsed flags to its records, in --suite all order
SUITES = {
    "appendix": lambda args: appendix.run_checks(200 if args.n_max is None else args.n_max),
    "theorems": lambda args: [c.to_record() for c in bounds.run_all_checks(fast=args.fast)],
}


def cmd_verify(cfg: ExperimentConfig, args: argparse.Namespace) -> int:
    names = list(SUITES) if args.suite == "all" else [args.suite]
    for flag, given, suite in (("--n-max", args.n_max is not None, "appendix"),
                               ("--fast", args.fast, "theorems")):
        if given and suite not in names:
            raise ValueError(f"{flag} is read only by --suite {suite} or all")
    checks = [rec for name in names for rec in SUITES[name](args)]
    bad = sum(not c["pass"] for c in checks)
    report = {"schema": SCHEMA_VERSION, "suite": args.suite, "checks": checks,
              "pass": bad == 0}
    text = json.dumps(report, indent=2, sort_keys=True, default=float)
    if cfg.output:
        with open(cfg.output, "w") as fh:
            fh.write(text + "\n")
        _write_summary_csv(os.path.splitext(cfg.output)[0] + ".csv", report)
    print(f"{len(checks)} checks, {bad} failures")
    if not cfg.output:
        print(text)
    return VERIFICATION_FAILURE if bad else 0


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
    rng = np.random.default_rng(cfg.seed)
    traj = simulate.run(kern, Topology(cfg.topology, cfg.sites), law, rng,
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

# the configuration flags; a subcommand takes only those its command reads,
# so a flag it would ignore exits 1
_FLAGS = {
    "--config": dict(help="JSON config file (flags override)"),
    "--model": dict(choices=["star", "kmp", "gg2", "gg3", "stick"]),
    "--m": dict(type=float),
    "--gamma": dict(type=float),
    "--E": dict(dest="energy", type=float),
    "--N": dict(dest="sites", type=int),
    "--topology": dict(choices=[NEAREST, LONG_RANGE]),
    "--method": dict(choices=["galerkin", "mc"]),
    "--degree": dict(type=int),
    "--budget": dict(type=int, help="MC event budget"),
    "--seed": dict(type=int),
    "--out": dict(dest="output"),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gapforge",
        description="Spectral-gap laboratory for stochastic energy exchange chains",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, run, help, *flags):
        p = sub.add_parser(name, help=help)
        p.set_defaults(run=run)
        for flag in flags:
            p.add_argument(flag, **_FLAGS[flag])
        return p

    kernel = ("--config", "--model", "--m", "--gamma")
    command("gap", cmd_gap, "compute a single spectral gap", *_FLAGS)

    p = command("sweep", cmd_sweep, "grid sweep over E, N, m, gamma", *_FLAGS)
    p.add_argument("--energies", help="comma-separated E grid")
    p.add_argument("--sites-grid", help="comma-separated N grid")
    p.add_argument("--m-grid", help="comma-separated m grid")
    p.add_argument("--gamma-grid", help="comma-separated gamma grid")
    p.add_argument("--jobs", type=int, default=1, help="worker processes, at most the "
                   "grid points and the CPUs (results do not depend on it)")

    command("kappa", cmd_kappa, "three-site constants, both routes", *kernel, "--degree", "--out")

    p = command("two-site", cmd_two_site, "two-site constant C~", *kernel)
    p.add_argument("--two-site-degree", type=int, default=30)

    p = command("verify", cmd_verify, "lemma / theorem verification suites", "--out")
    p.add_argument("--suite", choices=[*SUITES, "all"], default="all")
    p.add_argument("--n-max", type=int, help="appendix truncation (default 200)")
    p.add_argument("--fast", action="store_true",
                   help="reduced grids for smoke runs")

    p = command("simulate", cmd_simulate, "dump a sampled trajectory to CSV", *kernel,
                "--E", "--N", "--topology", "--budget", "--seed", "--out")
    p.add_argument("--sample-dt", type=float)

    p = command("path", cmd_path, "moving-path construction for a site pair")
    p.add_argument("--i", type=int, required=True)
    p.add_argument("--j", type=int, required=True)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return CONFIG_ERROR if exc.code not in (0, None) else 0
    try:
        # the command's flags are the attributes its parser sets
        cfg = (ExperimentConfig.from_file(args.config, args.command, set(vars(args)))
               if getattr(args, "config", None) else ExperimentConfig())
        cfg.apply_flags(args)
        cfg.command = args.command
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return CONFIG_ERROR
    try:
        return args.run(cfg, args)
    except (np.linalg.LinAlgError, ArithmeticError,  # LinAlgError is a ValueError
            appendix.BracketInversionError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return NUMERICAL_ERROR
    except (ValueError, OSError) as exc:  # OSError: an --out the command cannot write
        print(f"config error: {exc}", file=sys.stderr)
        return CONFIG_ERROR


if __name__ == "__main__":
    raise SystemExit(main())
