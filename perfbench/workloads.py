"""The workloads, their operations and the correctness gate of each.

Each workload drives the public functions of gapforge the way a real caller
does.  An operation (op) is one timed call; ``judge`` compares its output with
the pinned references in ``refs.json`` and returns one verdict per checked
output: ``(ok, statistical, message)``.  Statistical verdicts (Monte Carlo
agreement) count as failed ops but do not make the run incorrect, because
their gate misses at a known rate for a correct program.

Tolerances are those the tier-1 tests use for the same quantity:

* Galerkin gaps: 1e-8 absolute (criterion 01, test_exact_m0_long_range_formula,
  test_kappa_tilde_zero_reference).  A value computed from gaps gets 1e-8
  times the first-order sensitivity of its formula.
* Scaling identity: 1e-10 (criterion 03).
* Two-site constants of mechanical kernels: 1e-6 (criterion 08, stick m = 1).
* Appendix coefficient and certificate values: 1e-8 (criterion 05).
* Monte Carlo gap estimates: not flagged and z <= 3 against the degree-6
  Galerkin reference (criterion 10).
* Bare simulator runs: not flagged and total energy conserved to
  ``gapforge.measures.ENERGY_RTOL``.
"""

from __future__ import annotations

import json
import math
from collections import namedtuple
import os
import random
import shutil
import tempfile

GALERKIN_TOL = 1e-8
SCALING_TOL = 1e-10
TWO_SITE_TOL = 1e-6
APPENDIX_TOL = 1e-8
Z_MAX = 3.0
NEGATIVE_M_SIGMAS = 5.0

WORKLOADS = ("verify-fast", "mc-relax")

# mc-relax sizes, chosen for run time alone
ESTIMATE_EVENTS = 200_000
SMOKE_ESTIMATE_EVENTS = 20_000
MC_REFERENCE_DEGREE = 6
OBSERVABLE_DEGREE = 3

# (model, m, gamma, N, topology kind) of the autocorrelation estimates
MC_CASES = [
    ("kmp", 0.0, 1.0, 3, "nearest"),
    ("kmp", 0.0, 1.0, 3, "longrange"),
    ("stick", 1.0, 1.0, 3, "nearest"),
    ("gg3", 0.5, 1.5, 3, "nearest"),
    ("star", 1.0, 1.0, 4, "longrange"),
]
# (model, m, gamma, N, topology kind, events) of the bare simulator runs
BARE_RUNS = [
    ("kmp", 0.0, 1.0, 16, "longrange", 100_000),
    ("gg2", 0.5, 1.0, 4, "nearest", 3_000),
]


# (kernel, m, gamma) of the nearest-neighbour constant checks
COMPARE_CASES = [("star", 0.0, 1.0), ("star", 0.5, 1.0), ("star", 1.0, 1.0),
                 ("stick", 1.0, 1.0), ("stick", 2.0, 1.0), ("gg3", 0.5, 1.5), ("gg2", 0.5, 1.0)]


def theorem_calls(n_hi=5):
    """The calls of ``bounds.run_all_checks(fast=True)``, one check each,
    with the same arguments, in its order.  ``check_kappa_chain`` shares its
    kappa values between its three checks and stays one call.
    Returns ``(key, function name, kwargs)``; the negative-m seed is added
    per run."""
    calls = []
    for g in (0.5, 1.0, 1.5, 2.0):
        calls.append(("check_thm0", {"gamma_grid": (g,), "n_range": range(2, n_hi)}))
    calls.append(("check_scaling", {"m": 1.0, "gamma": 1.0}))
    calls.append(("check_scaling", {"m": 0.5, "gamma": 1.0, "energies": (4.0,)}))
    for n in (3, 4, 5):
        calls.append(("check_convex", {"m": 1.0, "gamma": 1.0, "n_sites": n}))
    calls.append(("check_convex", {"m": 2.0, "gamma": 1.0, "n_sites": 3}))
    for n in range(3, n_hi):
        calls.append(("check_compm2m", {"m": 0.5, "gamma": 1.0, "n_sites": n}))
    calls.append(("check_compm2m", {"m": 1.0, "gamma": 1.0, "n_sites": 3}))
    for name, m, g in COMPARE_CASES:
        calls.append(("check_compare_and_main",
                      {"kernel_name": name, "m": m, "gamma": g, "n_range": range(2, n_hi)}))
    for name in ("gg3", "gg2", "stick"):
        calls.append(("check_prop21", {"kernel_name": name}))
    for m in (1.0, 2.0, 3.0):
        calls.append(("check_stick_two_site", {"m_list": (m,)}))
    calls.append(("check_kappa_chain", {}))
    calls.append(("check_negative_m_remark", {"n_samples": 50_000}))
    return [(_call_key(fn, kw), fn, kw) for fn, kw in calls]


def _call_key(fn, kwargs):
    def show(v):
        if isinstance(v, range):
            return f"range({v.start},{v.stop})"
        return repr(v)
    return fn + "(" + ",".join(f"{k}={show(v)}" for k, v in kwargs.items()) + ")"


# one timed call, and the gate for its output
Op = namedtuple("Op", "key run judge")


# ---------------------------------------------------------------------------
# verify-fast: the theorem checks one by one, plus the appendix suite

def _close(got, want, tol):
    return (isinstance(got, (int, float)) and math.isfinite(got)
            and abs(got - want) <= tol)


def _theorem_tolerances(rec):
    """Per-field absolute tolerance for one TheoremCheck record."""
    claim, p = rec["claim"], rec["params"]
    if claim == "exact-m0-formula":
        return {"lhs": GALERKIN_TOL, "rhs": 0.0}
    if claim == "scaling-identity":
        return {"lhs": SCALING_TOL, "rhs": 0.0}
    if claim == "convex-comparison":
        # rhs = E^m kappa_m / 2 * exact, sensitivity below 1
        return {"lhs": GALERKIN_TOL, "rhs": GALERKIN_TOL}
    if claim == "m-to-2m-comparison":
        # rhs = sqrt(pref * gap_2m), pref = (3 kt - 1)(1 - 2/N) + 1/N
        n, rhs = p["N"], rec["rhs"]
        pref = (3.0 * p["kappa_tilde_m"] - 1.0) * (1.0 - 2.0 / n) + 1.0 / n
        gap2 = rhs * rhs / pref
        sens = (3.0 * (1.0 - 2.0 / n) * gap2 + pref) / (2.0 * rhs)
        return {"lhs": GALERKIN_TOL, "rhs": GALERKIN_TOL * max(sens, 1.0),
                "kappa_tilde_m": GALERKIN_TOL}
    if claim == "main-theorem-empirical-constant":
        # lhs = min over N of gap * N^2
        return {"lhs": GALERKIN_TOL * max(p["N"]) ** 2, "rhs": 0.0}
    if claim == "mechanical-lower-bound":
        # rhs = C~ / 2^m * star gap: sensitivity star gap / 2^m = rhs / C~ to
        # C~ and C~ / 2^m <= 1 to the gap
        return {"lhs": GALERKIN_TOL, "rhs": TWO_SITE_TOL * rec["rhs"] / p["ctilde"] + GALERKIN_TOL,
                "ctilde": TWO_SITE_TOL}
    if claim == "stick-two-site":
        return {"lhs": TWO_SITE_TOL, "rhs": 1e-12}
    if claim == "kappa-chain-nn-vs-lr":
        # rhs = 3 kappa~_1 - 1
        return {"lhs": GALERKIN_TOL, "rhs": 3.0 * GALERKIN_TOL}
    if claim == "kappa-chain-holder":
        # rhs = kappa_1^m' / 2, sensitivity m' kappa_1^(m'-1) / 2 < 1
        return {"lhs": GALERKIN_TOL, "rhs": GALERKIN_TOL}
    raise KeyError(claim)


def judge_theorem_records(records, refs):
    """Verdicts for the TheoremCheck records of one call against their refs."""
    if len(records) != len(refs):
        return [(False, False, f"{len(records)} checks, expected {len(refs)}")] * max(len(refs), 1)
    out = []
    for rec, ref in zip(records, refs):
        msgs = []
        for field in ("lhs", "rhs"):
            if not (isinstance(rec[field], (int, float)) and math.isfinite(rec[field])):
                msgs.append(f"{field} not finite: {rec[field]}")
        if rec["claim"] != ref["claim"]:
            msgs.append(f"claim {rec['claim']} != {ref['claim']}")
        if rec["pass"] != ref["pass"]:
            msgs.append(f"pass {rec['pass']} != {ref['pass']}")
        if msgs:
            out.append((False, False, "; ".join(msgs)))
            continue
        if rec["claim"] == "negative-m-no-uniform-gap":
            out.append(_judge_negative_m(rec, ref))
            continue
        tols = _theorem_tolerances(ref)
        for field, tol in tols.items():
            got = rec[field] if field in ("lhs", "rhs") else rec["params"][field]
            want = ref[field] if field in ("lhs", "rhs") else ref["params"][field]
            if not _close(got, want, tol):
                msgs.append(f"{field} {got!r} vs {want!r} (tol {tol:.1e})")
        # closed forms next to the pinned values
        if rec["claim"] == "exact-m0-formula" and not rec["lhs"] < GALERKIN_TOL:
            msgs.append(f"error vs exact_gap_lr_m0 {rec['lhs']!r} >= {GALERKIN_TOL}")
        if rec["claim"] == "stick-two-site" and rec["params"]["m"] == 1.0 \
                and not abs(rec["lhs"] - 1.0) < TWO_SITE_TOL:
            msgs.append(f"stick two-site constant {rec['lhs']!r} != 1")
        out.append((not msgs, False, "; ".join(msgs)))
    return out


def _judge_negative_m(rec, ref):
    """Monte Carlo Rayleigh quotient: rhs exact, lhs within five combined
    standard errors of the pinned seed-0 value."""
    if abs(rec["rhs"] - ref["rhs"]) > 1e-12:
        return (False, False, f"rhs {rec['rhs']!r} vs {ref['rhs']!r}")
    sigma = math.hypot(rec["params"]["stderr"], ref["params"]["stderr"])
    z = abs(rec["lhs"] - ref["lhs"]) / sigma
    if not z <= NEGATIVE_M_SIGMAS:
        return (False, True, f"quotient {rec['lhs']:.6f} vs pinned {ref['lhs']:.6f}: z = {z:.2f}")
    return (True, True, "")


def theorem_ops(gf, seed, refs, smoke=False):
    calls = theorem_calls()
    if smoke:
        calls = [c for c in calls if c[1] in ("check_thm0", "check_scaling",
                                              "check_negative_m_remark")][:3]
    ops = []
    for key, fn, kwargs in calls:
        if fn == "check_negative_m_remark":
            kwargs = {**kwargs, "seed": seed}

        def run(fn=fn, kwargs=kwargs):
            res = getattr(gf.bounds, fn)(**kwargs)
            return [c.to_record() for c in (res if isinstance(res, list) else [res])]

        def judge(records, key=key):
            return judge_theorem_records(records, refs["theorems"][key])

        ops.append(Op(key, run, judge))
    return ops


def _judge_appendix_record(rec, ref):
    if set(rec) != set(ref):
        return f"fields {sorted(rec)} != {sorted(ref)}"
    msgs = []
    for field, want in ref.items():
        got = rec[field]
        if isinstance(want, bool) or isinstance(want, str) or isinstance(want, int):
            if got != want or type(got) is not type(want):
                msgs.append(f"{field} {got!r} != {want!r}")
        elif not _close(got, want, APPENDIX_TOL):
            msgs.append(f"{field} {got!r} vs {want!r} (tol {APPENDIX_TOL:.0e})")
    return "; ".join(msgs)


def appendix_ops(gf, refs, workdir, smoke=False):
    """One op: ``gapforge verify --suite appendix`` in-process.  Every record
    of its report is one checked output."""
    argv = ["verify", "--suite", "appendix"]
    if smoke:
        argv += ["--n-max", "12"]

    def run():
        outdir = tempfile.mkdtemp(prefix="appendix-", dir=workdir)
        try:
            path = os.path.join(outdir, "report.json")
            code = gf.cli.main(argv + ["--out", path])
            with open(path) as fh:
                report = json.load(fh)
        finally:
            shutil.rmtree(outdir, ignore_errors=True)
        return code, report

    def judge(output):
        code, report = output
        records = report.get("checks", [])
        if smoke:
            return [(_finite_record(r), False, "" if _finite_record(r) else f"not finite: {r}")
                    for r in records] or [(False, False, "empty report")]
        ref = refs["appendix"]
        if len(records) != len(ref["records"]):
            return [(False, False, f"{len(records)} records, expected {len(ref['records'])}")] \
                * len(ref["records"])
        out = []
        for rec, want in zip(records, ref["records"]):
            msg = _judge_appendix_record(rec, want)
            out.append((not msg, False, msg))
        if code != ref["exit_code"]:
            out[-1] = (False, False, f"exit code {code} != {ref['exit_code']}")
        return out

    return [Op("cli.main(verify --suite appendix)", run, judge)]


def verify_ops(gf, seed, refs, workdir, smoke=False):
    """The theorem checks and the appendix suite, in an order permuted by
    the seed."""
    ops = theorem_ops(gf, seed, refs, smoke) + appendix_ops(gf, refs, workdir, smoke)
    random.Random(seed).shuffle(ops)
    return ops


def _finite_record(rec):
    return all(math.isfinite(v) for v in rec.values()
               if isinstance(v, float))


# ---------------------------------------------------------------------------
# mc-relax

def estimate_key(case):
    model, m, g, n, kind = case
    return f"estimate({model},m={m},gamma={g},N={n},{kind})"


def mc_ops(gf, seed, refs, tracer=None, smoke=False):
    import numpy as np

    simulate, models, measures = gf.simulate, gf.models, gf.measures
    kinds = {"nearest": simulate.NEAREST, "longrange": simulate.LONG_RANGE}
    wrap_kernel = tracer.wrap_kernel if tracer else (lambda k: k)
    wrap_observable = tracer.wrap_observable if tracer else (lambda f: f)
    cases = MC_CASES[:1] if smoke else MC_CASES
    bare = [(*BARE_RUNS[0][:5], 1_000)] if smoke else BARE_RUNS
    budget = SMOKE_ESTIMATE_EVENTS if smoke else ESTIMATE_EVENTS
    ops = []
    for idx, case in enumerate(cases):
        model, m, g, n, kind = case
        key = estimate_key(case)
        kern = wrap_kernel(models.make_kernel(model, m=m, gamma=g))
        law = measures.SimplexLaw(measures.GammaShape(g), 1.0, n)
        topo = simulate.Topology(kinds[kind], n)
        rng = np.random.default_rng([seed, idx])

        def run(kern=kern, law=law, topo=topo, rng=rng, kind=kinds[kind]):
            obs = simulate.slowest_mode_observable(law, kern, OBSERVABLE_DEGREE, kind)
            est = simulate.estimate_gap_autocorr(
                kern, topo, law, rng, n_events=budget, observable=wrap_observable(obs),
                observable_name="galerkin_mode")
            return est

        def judge(est, key=key):
            ref = refs["mc"][key]["gap"]
            if est.flagged or not (math.isfinite(est.value) and math.isfinite(est.stderr)):
                return [(False, False, f"flagged or not finite: value {est.value}, "
                                       f"stderr {est.stderr}, R^2 {est.r_squared:.3f}")]
            z = abs(est.value - ref) / est.stderr
            msg = f"value {est.value:.5f} +- {est.stderr:.5f} vs {ref:.5f}: z = {z:.2f}"
            return [(z <= Z_MAX, True, msg)]

        ops.append(Op(key, run, judge))
    for idx, (model, m, g, n, kind, events) in enumerate(bare, start=len(MC_CASES)):
        key = f"run({model},m={m},gamma={g},N={n},{kind},events={events})"
        kern = wrap_kernel(models.make_kernel(model, m=m, gamma=g))
        law = measures.SimplexLaw(measures.GammaShape(g), 1.0, n)
        topo = simulate.Topology(kinds[kind], n)
        rng = np.random.default_rng([seed, idx])

        def run(kern=kern, law=law, topo=topo, rng=rng, events=events):
            return simulate.run(kern, topo, law, rng, n_events=events)

        def judge(traj, law=law, events=events):
            total = law.total_energy
            drift = float(np.max(np.abs(traj.samples.sum(axis=1) - total))) / total
            ok = (not traj.flagged and traj.n_events == events
                  and drift <= measures.ENERGY_RTOL)
            return [(ok, False, f"flagged {traj.flagged}, events {traj.n_events}, "
                                f"relative energy drift {drift:.2e}")]

        ops.append(Op(key, run, judge))
    random.Random(seed).shuffle(ops)
    return ops


def events_of(output):
    """Simulator events an mc-relax op reports (main runs only for estimates)."""
    if hasattr(output, "n_events"):
        return int(output.n_events)
    return int(getattr(output, "diagnostics", {}).get("n_events", 0))
