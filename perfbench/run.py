"""gapforge benchmark: one workload, one seed, one result line.

    python3 perfbench/run.py --workload verify-fast --seed 1 --seconds 10 --trace 0

Runs from the root of a source checkout (the package is imported from
``src/``).  Each round of the workload runs in a fresh worker process;
rounds repeat until ``--seconds`` have passed (at least one round).
``wall_s`` is the fastest round; other metrics are medians over rounds.  ``setup_s`` is the median over at least
``SETUP_SAMPLES`` process starts, extra starts doing set-up only.

With ``--trace 0`` the result holds the end-to-end metrics of BENCHMARK.json;
with ``--trace 1`` it holds its per-layer metrics, taken from one extra
traced round, plus the tracing overhead against the fastest untraced round.  Every
metric the workload yields, the machine facts and each failed or
statistical check are printed above the result; the full record, and the
spans of a traced round, are written under ``.perfbench/``.

``--smoke`` runs a tiny version of each workload to exercise the harness.
It exits 2 without a result when the checkout holds no package source.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_SAMPLES = 3
RUN_BUDGET_S = 170.0  # a run must end within 180 s
BLAS_THREADS = 1  # the workloads are single-threaded; never above nproc


def nproc():
    return len(os.sched_getaffinity(0))


def worker_env():
    env = dict(os.environ)
    threads = str(min(BLAS_THREADS, nproc()))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = threads
    env["PYTHONHASHSEED"] = "0"
    return env


class Runner:
    def __init__(self, args):
        self.args = args
        self.start = time.monotonic()
        self.env = worker_env()

    def remaining(self):
        return RUN_BUDGET_S - (time.monotonic() - self.start)

    def launch(self, trace=False, setup_only=False):
        a = self.args
        cmd = [sys.executable, str(HERE / "worker.py"), "--workload", a.workload,
               "--seed", str(a.seed)]
        if trace:
            cmd.append("--trace")
        if setup_only:
            cmd.append("--setup-only")
        if a.smoke:
            cmd.append("--smoke")
        cmd += ["--launched", repr(time.monotonic())]
        proc = subprocess.run(cmd, cwd=ROOT, env=self.env, capture_output=True, text=True,
                              timeout=max(self.remaining(), 1.0))
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            raise RuntimeError(f"worker exited {proc.returncode}: {proc.stderr[-2000:]}")
        return json.loads(lines[-1])


def machine_facts():
    import numpy
    import scipy
    return {
        "nproc": nproc(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": min(BLAS_THREADS, nproc()),
        "machine": platform.machine(),
    }


def tail_percentile(values):
    """(value, percentile, count beyond) of the highest percentile with at
    least ten values beyond it; needs at least 11 values."""
    n = len(values)
    k = n - 10  # rank (1-based) of the reported value
    return sorted(values)[k - 1], 100.0 * k / n, n - k


def main(argv=None):
    parser = argparse.ArgumentParser(description="gapforge benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, harness check only")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "gapforge" / "__init__.py").is_file():
        print(f"perfbench: no package source at {ROOT / 'src' / 'gapforge'}", file=sys.stderr)
        return 2
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    (ROOT / ".perfbench").mkdir(exist_ok=True)
    runner = Runner(args)

    try:
        rounds = [runner.launch()]
        longest = rounds[0]["wall_s"] + rounds[0]["setup_s"]
        # keep room for the traced round, which runs slower than an untraced one
        reserve = 1.5 * longest if args.trace else 0.0
        while (time.monotonic() - runner.start < args.seconds
               and runner.remaining() > 1.5 * longest + reserve):
            rounds.append(runner.launch())
            longest = max(longest, rounds[-1]["wall_s"] + rounds[-1]["setup_s"])
        setups = [r["setup_s"] for r in rounds]
        traced = None
        if args.trace:
            traced = runner.launch(trace=True)
        else:
            while len(setups) < SETUP_SAMPLES:
                setups.append(runner.launch(setup_only=True)["setup_s"])
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    facts = machine_facts()
    # contention on a shared machine only ever adds time, so the fastest round
    # is the steadiest estimate of what the program costs
    wall_s = min(r["wall_s"] for r in rounds)
    ops = [op for r in rounds for op in r["ops"]]
    attempted = sum(op["checked"] for op in ops)
    failed = sum(op["failed"] for op in ops)
    hard_failed = sum(op["hard_failed"] for op in ops)

    shown = {
        "wall_s": (wall_s, "s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (statistics.median(r["rss_mb"] for r in rounds), "MB"),
        "failed_frac": (failed / attempted if attempted else 1.0, "ratio"),
    }
    latencies = [op["s"] * 1e3 for op in rounds[0]["ops"]]
    if len(latencies) >= 11:
        shown["op_p50_ms"] = (statistics.median(latencies), "ms")
        value, pct, beyond = tail_percentile(latencies)
        shown["op_tail_ms"] = (value, f"ms (p{pct:.1f}, {beyond} of {len(latencies)} ops beyond)")
    events = sum(op["events"] for op in rounds[0]["ops"])
    if events:
        shown["events_per_s"] = (events / rounds[0]["wall_s"], "1/s")

    print(f"perfbench {args.workload} seed {args.seed} rounds {len(rounds)}"
          f"{' smoke' if args.smoke else ''}")
    print("facts " + json.dumps(facts, sort_keys=True))
    for op in rounds[0]["ops"]:
        for msg in op["messages"]:
            print(f"check {op['key']}: {msg}")
    for name, (value, unit) in shown.items():
        print(f"metric {name} {value:.6g} {unit}")

    if args.trace:
        layer = dict(traced["per_layer"])
        layer["trace.overhead_s"] = traced["wall_s"] - wall_s
        units = dict(tracing.PER_LAYER)
        for name, unit in tracing.PER_LAYER:
            text = f"{layer[name]:.6g} {unit}" if name in layer else "absent"
            print(f"layer {name} {text}")
        if traced["absent"]:
            print("absent patch points: " + ", ".join(traced["absent"]))
        print(f"trace spans -> {traced['trace_file']}")
        wanted = [m["name"] for m in spec["per_layer"]]
        metrics = {name: {"value": layer[name], "unit": units[name]}
                   for name in wanted if name in layer}
        attempted += sum(op["checked"] for op in traced["ops"])
        failed += sum(op["failed"] for op in traced["ops"])
        hard_failed += sum(op["hard_failed"] for op in traced["ops"])
    else:
        wanted = [m["name"] for m in spec["end_to_end"]]
        metrics = {name: {"value": shown[name][0], "unit": shown[name][1]}
                   for name in wanted}

    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "smoke": args.smoke, "facts": facts, "rounds": rounds, "traced": traced,
              "shown": {k: v[0] for k, v in shown.items()}, "metrics": metrics}
    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(ROOT / ".perfbench" / name, "w") as fh:
        json.dump(record, fh, indent=1)

    print(json.dumps({"correct": hard_failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
