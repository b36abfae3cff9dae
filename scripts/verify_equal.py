#!/usr/bin/env python3
"""Check that ``gapforge`` gives the same bytes here and in another checkout.

Five ``verify`` invocations (``--suite all``, ``--suite theorems --fast``,
``--suite appendix``, ``--suite appendix --n-max 3`` and ``--suite all
--n-max 60``), two ``simulate`` trajectories (kmp N = 16 long range, 100k
events, seed 1; gg2 N = 4 nearest, 20k events, seed 3), a ``sweep`` CSV (star
m = 0 and 1, N = 2 and 3, degree 3), a ``kappa`` JSON (star m = 1, gamma =
1/2, degree 4) and ``path`` for every 0 <= i < j <= 20 run in this checkout
and in OTHER_CHECKOUT, each
invocation in its own process from its checkout's ``src`` and with one BLAS
thread (the path grid is one invocation, a process that runs its 210
commands in turn).  The files each writes, its stdout and its exit codes are
compared byte for byte.  Each invocation prints its distinct exit codes and
the files that are equal or names each differing one.  For a differing JSON
report it prints every moved field with its old value (OTHER_CHECKOUT's), its
new value (this checkout's) and its relative move, and whether a ``pass``
flag changed.  The last line names every changed exit code.  It exits 1 if
any file differs, else 0:

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
    "sweep": ([["sweep", "--model", "star", "--m-grid", "0,1", "--sites-grid", "2,3",
                "--degree", "3", "--out", "sweep.csv"]], ("sweep.csv", "sweep.meta.json")),
    "kappa": ([["kappa", "--model", "star", "--m", "1", "--gamma", "0.5", "--degree", "4",
                "--out", "kappa.json"]], ("kappa.json",)),
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


def leaves(doc, path: str = ""):
    """(path, value) of every leaf of a JSON document, in document order; a
    list entry with a ``claim`` carries it in its path."""
    if isinstance(doc, dict):
        for key, value in doc.items():
            yield from leaves(value, f"{path}.{key}" if path else key)
    elif isinstance(doc, list):
        for i, value in enumerate(doc):
            claim = f" {value['claim']}" if isinstance(value, dict) and "claim" in value else ""
            yield from leaves(value, f"{path}[{i}{claim}]")
    else:
        yield path, doc


def moved_fields(old, new) -> list[str]:
    """One line per leaf that differs between two JSON documents: old value,
    new value and, for numbers, the relative move, then whether a ``pass``
    flag changed."""
    a, b = dict(leaves(old)), dict(leaves(new))
    lines, flags = [], []
    for path in [*a, *(p for p in b if p not in a)]:
        x, y = a.get(path, "(absent)"), b.get(path, "(absent)")
        if repr(x) == repr(y):
            continue
        move = ""
        if all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in (x, y)):
            move = f" (relative move {abs(y - x) / abs(x):.2g})" if x else f" (absolute move {abs(y):.2g})"
        lines.append(f"{path}: {x!r} -> {y!r}{move}")
        if path.rsplit(".", 1)[-1] == "pass":
            flags.append(path)
    return lines + [f"pass flags changed: {', '.join(flags) if flags else 'none'}"]


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("other", type=pathlib.Path, help="the checkout to compare with")
    args = ap.parse_args()
    other = args.other.resolve()
    if not (other / "src" / "gapforge" / "cli.py").is_file():
        ap.error(f"{other} holds no src/gapforge/cli.py")
    differs, code_changes = False, []
    with tempfile.TemporaryDirectory() as tmp:
        for name, (argvs, files) in INVOCATIONS.items():
            here_dir, other_dir = pathlib.Path(tmp, "here", name), pathlib.Path(tmp, "other", name)
            codes = run(HERE, argvs, here_dir), run(other, argvs, other_dir)
            if codes[0] != codes[1]:
                code_changes.append(f"{name} {codes[1]} -> {codes[0]}")
            outputs, equal = (*files, *COMMON_OUT), []
            for out in outputs:
                new, old = here_dir / out, other_dir / out
                if new.is_file() and old.is_file() and new.read_bytes() == old.read_bytes():
                    equal.append(out)
                    continue
                differs = True
                print(f"{name}: {out} differs")
                if out.endswith(".json") and new.is_file() and old.is_file():
                    for line in moved_fields(json.loads(old.read_text()), json.loads(new.read_text())):
                        print(f"  {line}")
            exits = " ".join(sorted(set(codes[0].split())))
            print(f"{name}: {len(argvs)} command(s), exit {exits}, {', '.join(equal) or 'nothing'} equal")
    print(f"exit codes changed: {', '.join(code_changes) or 'none'}")
    return int(differs)


if __name__ == "__main__":
    sys.exit(main())
