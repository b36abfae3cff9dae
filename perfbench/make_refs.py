"""Write refs.json, the pinned outputs the benchmark gates on.

    python3 perfbench/make_refs.py

Run from the root of a checkout of the commit the references are pinned to.
It also checks that the benchmark's theorem-check calls reproduce
``bounds.run_all_checks(fast=True)`` record for record, and that the
Monte Carlo references agree with the exact long-range m = 0 formula.
"""

from __future__ import annotations

import json
import math
import os
import platform
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import numpy  # noqa: E402
import scipy  # noqa: E402
from gapforge import bounds, cli, galerkin, measures, models, simulate  # noqa: E402

import workloads  # noqa: E402


def theorem_refs():
    refs, flat = {}, []
    for key, fn, kwargs in workloads.theorem_calls():
        if fn == "check_negative_m_remark":
            kwargs = {**kwargs, "seed": 0}
        res = getattr(bounds, fn)(**kwargs)
        recs = [c.to_record() for c in (res if isinstance(res, list) else [res])]
        refs[key] = recs
        flat.extend(recs)
    harness = [c.to_record() for c in bounds.run_all_checks(fast=True)]
    if json.dumps(flat, default=float) != json.dumps(harness, default=float):
        raise SystemExit("theorem-check calls do not reproduce run_all_checks(fast=True)")
    return refs


def appendix_refs():
    with tempfile.TemporaryDirectory(dir=ROOT) as tmp:
        path = os.path.join(tmp, "report.json")
        code = cli.main(["verify", "--suite", "appendix", "--out", path])
        with open(path) as fh:
            report = json.load(fh)
    return {"exit_code": code, "records": report["checks"]}


def mc_refs():
    kinds = {"nearest": galerkin.CHAIN, "longrange": galerkin.COMPLETE}
    refs = {}
    for case in workloads.MC_CASES:
        model, m, g, n, kind = case
        law = measures.SimplexLaw(measures.GammaShape(g), 1.0, n)
        kern = models.make_kernel(model, m=m, gamma=g)
        gap = galerkin.spectral_gap(law, kern, workloads.MC_REFERENCE_DEGREE, kinds[kind]).value
        entry = {"gap": gap, "degree": workloads.MC_REFERENCE_DEGREE}
        if model == "kmp" and kind == "longrange":
            exact = bounds.exact_gap_lr_m0(g, n)
            if not abs(gap - exact) < workloads.GALERKIN_TOL:
                raise SystemExit(f"{case}: Galerkin {gap} vs exact {exact}")
            entry["exact"] = exact
        refs[workloads.estimate_key(case)] = entry
    return refs


def main():
    out = {
        "note": "outputs of the pinned commit; regenerate only with the program unchanged",
        "versions": {"python": platform.python_version(), "numpy": numpy.__version__,
                     "scipy": scipy.__version__},
        "theorems": theorem_refs(),
        "appendix": appendix_refs(),
        "mc": mc_refs(),
    }
    assert all(math.isfinite(v["gap"]) for v in out["mc"].values())
    with open(HERE / "refs.json", "w") as fh:
        json.dump(out, fh, indent=1, default=float)
        fh.write("\n")
    print(f"wrote {HERE / 'refs.json'}: {sum(len(v) for v in out['theorems'].values())} "
          f"theorem checks, {len(out['appendix']['records'])} appendix records, "
          f"{len(out['mc'])} Monte Carlo references")


if __name__ == "__main__":
    main()
