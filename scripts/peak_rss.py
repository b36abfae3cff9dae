#!/usr/bin/env python3
"""Resident-memory high-water mark of ``verify --suite theorems --fast`` and
``verify --suite appendix``, call by call, in one process.

The script runs ``bounds.run_all_checks(fast=True)`` with each of its check
calls wrapped, then the appendix suite, and prints the process's peak RSS
(``ru_maxrss``) after the imports and after each call, with the rise that
call caused. The call with the largest rise is the one that sets the peak:

    PYTHONPATH=src python3 scripts/peak_rss.py
"""

import functools
import os
import resource
import tempfile

from gapforge import bounds, cli


def peak_mb() -> float:
    """Peak RSS of this process so far, in MB (``ru_maxrss`` is in kB on Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def report(label: str, last: list) -> None:
    now = peak_mb()
    print(f"{now:9.1f} {now - last[0]:+8.1f}  {label}", flush=True)
    last[0] = now


def main() -> None:
    last = [peak_mb()]
    print(f"{'peak MB':>9s} {'rise':>8s}  after")
    report("imports", last)

    def traced(name, fn):
        @functools.wraps(fn)
        def call(*args, **kwargs):
            try:
                return fn(*args, **kwargs)
            finally:
                shown = [repr(a) for a in args] + [f"{k}={v!r}" for k, v in kwargs.items()]
                report(f"{name}({', '.join(shown)})", last)
        return call

    checks = {name: fn for name, fn in vars(bounds).items()
              if name.startswith("check_") and callable(fn)}
    for name, fn in checks.items():
        setattr(bounds, name, traced(name, fn))
    try:
        bounds.run_all_checks(fast=True)
    finally:
        for name, fn in checks.items():
            setattr(bounds, name, fn)

    with tempfile.TemporaryDirectory() as tmp:
        cli.main(["verify", "--suite", "appendix", "--out", os.path.join(tmp, "appendix.json")])
    report("verify --suite appendix", last)


if __name__ == "__main__":
    main()
