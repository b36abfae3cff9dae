#!/usr/bin/env python3
"""Check that ``gapforge`` gives the same bytes here and in another checkout.

Five ``verify`` invocations (``--suite all``, ``--suite theorems --fast``,
``--suite appendix``, ``--suite appendix --n-max 3`` and ``--suite all
--n-max 60``), two ``simulate`` trajectories (kmp N = 16 long range, 100k
events, seed 1; gg2 N = 4 nearest, 20k events, seed 3) and ``path`` for every
0 <= i < j <= 20 run in this checkout and in OTHER_CHECKOUT, each
invocation in its own process from its checkout's ``src`` and with one BLAS
thread (the path grid is one invocation, a process that runs its 210
commands in turn).  The files each writes, its stdout and its exit codes are
compared byte for byte.  On the first difference the script names the
differing file and exits 1; otherwise it prints each invocation's distinct exit
codes and exits 0:

    python3 scripts/verify_equal.py ../gapforge-parent
"""

import argparse
import json
import os
import pathlib
import subprocess
import sys
import tempfile

HERE = pathlib.Path(__file__).resolve().parents[1]
VERIFY = {
    "all": ["--suite", "all"],
    "theorems-fast": ["--suite", "theorems", "--fast"],
    "appendix": ["--suite", "appendix"],
    "appendix-n3": ["--suite", "appendix", "--n-max", "3"],
    "all-n60": ["--suite", "all", "--n-max", "60"],
}
SIMULATE = {
    "simulate-kmp": ["--model", "kmp", "--N", "16", "--topology", "long-range",
                     "--budget", "100000", "--seed", "1"],
    "simulate-gg2": ["--model", "gg2", "--N", "4", "--topology", "nearest",
                     "--budget", "20000", "--seed", "3"],
}
# name -> (the command lines one process runs in turn, the files they write)
INVOCATIONS = {
    **{name: ([["verify", *flags, "--out", "report.json"]], ("report.json", "report.csv"))
       for name, flags in VERIFY.items()},
    **{name: ([["simulate", *flags, "--out", "traj.csv"]], ("traj.csv",))
       for name, flags in SIMULATE.items()},
    "path-grid": ([["path", "--i", str(i), "--j", str(j)] for j in range(1, 21) for i in range(j)],
                  ()),
}
DRIVER = ("import json, sys\n"
          "from gapforge.cli import main\n"
          "codes = [main(argv) for argv in json.loads(sys.argv[1])]\n"
          "open('exit_codes.txt', 'w').write(' '.join(map(str, codes)))\n")
COMMON_OUT = ("stdout.txt", "exit_codes.txt")


def run(checkout: pathlib.Path, argvs: list[list[str]], outdir: pathlib.Path) -> str:
    """Run ``argvs`` through ``gapforge.cli.main`` in one process from
    ``checkout``, in ``outdir``; returns their exit codes."""
    outdir.mkdir(parents=True)
    env = {**os.environ, "PYTHONPATH": str(checkout / "src"), "OPENBLAS_NUM_THREADS": "1"}
    proc = subprocess.run([sys.executable, "-c", DRIVER, json.dumps(argvs)],
                          env=env, cwd=outdir, stdout=subprocess.PIPE, check=False)
    (outdir / COMMON_OUT[0]).write_bytes(proc.stdout)
    codes = outdir / COMMON_OUT[1]
    return codes.read_text() if codes.is_file() else f"driver exit {proc.returncode}"


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("other", type=pathlib.Path, help="the checkout to compare with")
    args = ap.parse_args()
    other = args.other.resolve()
    if not (other / "src" / "gapforge" / "cli.py").is_file():
        ap.error(f"{other} holds no src/gapforge/cli.py")
    with tempfile.TemporaryDirectory() as tmp:
        for name, (argvs, files) in INVOCATIONS.items():
            here_dir, other_dir = pathlib.Path(tmp, "here", name), pathlib.Path(tmp, "other", name)
            codes = run(HERE, argvs, here_dir), run(other, argvs, other_dir)
            if codes[0] != codes[1]:
                print(f"{name}: exit codes {codes[0]} here, {codes[1]} in {other}")
                return 1
            outputs = (*files, *COMMON_OUT)
            for out in outputs:
                a, b = here_dir / out, other_dir / out
                if not (a.is_file() and b.is_file() and a.read_bytes() == b.read_bytes()):
                    print(f"{name}: {out} differs")
                    return 1
            exits = " ".join(sorted(set(codes[0].split())))
            print(f"{name}: {len(argvs)} command(s), exit {exits}, {', '.join(outputs)} equal")
    return 0


if __name__ == "__main__":
    sys.exit(main())
