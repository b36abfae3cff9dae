#!/usr/bin/env python3
"""Check that ``gapforge verify`` gives the same bytes here and in another
checkout.

Five invocations (``--suite all``, ``--suite theorems --fast``, ``--suite
appendix``, ``--suite appendix --n-max 3`` and ``--suite all --n-max 60``) run
in this checkout and in OTHER_CHECKOUT, each from its own ``src`` and with one
BLAS thread.  Their JSON report, CSV summary and stdout are compared byte for
byte, and their exit codes.  On the first difference the script names the
differing file and exits 1; otherwise it prints each invocation's exit code
and exits 0:

    python3 scripts/verify_equal.py ../gapforge-parent
"""

import argparse
import os
import pathlib
import subprocess
import sys
import tempfile

HERE = pathlib.Path(__file__).resolve().parents[1]
INVOCATIONS = {
    "all": ["--suite", "all"],
    "theorems-fast": ["--suite", "theorems", "--fast"],
    "appendix": ["--suite", "appendix"],
    "appendix-n3": ["--suite", "appendix", "--n-max", "3"],
    "all-n60": ["--suite", "all", "--n-max", "60"],
}
OUTPUTS = ("report.json", "report.csv", "stdout.txt")


def run(checkout: pathlib.Path, flags: list[str], outdir: pathlib.Path) -> int:
    """Run ``verify`` with ``flags`` from ``checkout``, writing its outputs to ``outdir``."""
    outdir.mkdir(parents=True)
    env = {**os.environ, "PYTHONPATH": str(checkout / "src"), "OPENBLAS_NUM_THREADS": "1"}
    proc = subprocess.run(
        [sys.executable, "-m", "gapforge.cli", "verify", *flags, "--out", str(outdir / OUTPUTS[0])],
        env=env, cwd=outdir, stdout=subprocess.PIPE, check=False)
    (outdir / OUTPUTS[2]).write_bytes(proc.stdout)
    return proc.returncode


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("other", type=pathlib.Path, help="the checkout to compare with")
    args = ap.parse_args()
    other = args.other.resolve()
    if not (other / "src" / "gapforge" / "cli.py").is_file():
        ap.error(f"{other} holds no src/gapforge/cli.py")
    with tempfile.TemporaryDirectory() as tmp:
        for name, flags in INVOCATIONS.items():
            here_dir, other_dir = pathlib.Path(tmp, "here", name), pathlib.Path(tmp, "other", name)
            codes = run(HERE, flags, here_dir), run(other, flags, other_dir)
            if codes[0] != codes[1]:
                print(f"{name}: exit code {codes[0]} here, {codes[1]} in {other}")
                return 1
            for out in OUTPUTS:
                a, b = here_dir / out, other_dir / out
                if not (a.is_file() and b.is_file() and a.read_bytes() == b.read_bytes()):
                    print(f"{name}: {out} differs")
                    return 1
            print(f"verify {' '.join(flags)}: exit {codes[0]}, {', '.join(OUTPUTS)} equal")
    return 0


if __name__ == "__main__":
    sys.exit(main())
