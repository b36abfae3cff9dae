"""One round of one workload in a fresh process.

Started by ``run.py``; prints one JSON object as the last line of its
standard output.  A fresh process per round keeps every round cold: the
package's caches start empty, as they do for a user who runs ``gapforge``
once.

    python3 perfbench/worker.py --workload verify-fast --seed 1 \
        --launched <time.monotonic() of the parent at launch> [--trace] \
        [--setup-only] [--smoke]
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
MAX_MESSAGES = 40


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--launched", type=float, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)

    # set-up: imports and input generation
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    import gapforge
    from gapforge import appendix, bounds, cli, galerkin, measures, models, quad, simulate  # noqa: F401

    import tracing
    import workloads

    with open(HERE / "refs.json") as fh:
        refs = json.load(fh)
    tracer = tracing.Tracer() if args.trace else None
    if tracer is not None:
        tracer.install(gapforge)
    workdir = ROOT / ".perfbench"
    workdir.mkdir(exist_ok=True)
    if args.workload == "verify-fast":
        ops = workloads.verify_ops(gapforge, args.seed, refs, str(workdir), smoke=args.smoke)
    elif args.workload == "mc-relax":
        ops = workloads.mc_ops(gapforge, args.seed, refs, tracer=tracer, smoke=args.smoke)
    else:
        raise SystemExit(f"unknown workload {args.workload!r}")
    setup_s = time.monotonic() - args.launched
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    cache_before = tracer.cache_info() if tracer else {}
    results = []
    for op in ops:
        t0 = time.perf_counter()
        try:
            output = op.run()
            error = None
        except Exception as exc:  # an op that raises is a failed op
            output, error = None, f"{type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - t0
        if error is None:
            try:
                verdicts = op.judge(output)
            except Exception as exc:
                verdicts = [(False, False, f"gate raised {type(exc).__name__}: {exc}")]
        else:
            verdicts = [(False, False, error)]
        results.append({
            "key": op.key,
            "s": elapsed,
            "checked": len(verdicts),
            "failed": sum(not ok for ok, _, _ in verdicts),
            "hard_failed": sum(not ok and not stat for ok, stat, _ in verdicts),
            "messages": [msg for ok, stat, msg in verdicts if msg and (not ok or stat)][:MAX_MESSAGES],
            "events": workloads.events_of(output) if args.workload == "mc-relax" and output else 0,
        })
    wall_s = sum(r["s"] for r in results)
    out = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ops": results,
    }
    if tracer is not None:
        cache_after = tracer.cache_info()
        tracer.uninstall()
        out["per_layer"] = tracer.metrics(cache_before, cache_after)
        out["absent"] = sorted(set(tracer.absent))
        path = workdir / f"trace-{args.workload}-seed{args.seed}.json"
        with open(path, "w") as fh:
            json.dump(tracer.dump(), fh)
        out["trace_file"] = os.path.relpath(path, ROOT)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
