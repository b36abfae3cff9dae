"""Importing gapforge loads scipy.linalg and scipy.special and no other scipy
subpackage: scipy.stats alone more than doubles the import time, so
``simulate.equilibrium_check``, its only user, imports it on its first call."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np

from gapforge.measures import GammaShape, SimplexLaw
from gapforge.models import NEAREST, Topology, make_kernel
from gapforge.simulate import equilibrium_check

SRC = Path(__file__).resolve().parents[1] / "src"

FRESH_PROCESS = """
import sys

import numpy as np

import gapforge
from gapforge import appendix, bounds, cli, galerkin, measures, models, quad, simulate

print(sorted(name for name, mod in sys.modules.items()
             if name.startswith("scipy.") and name.count(".") == 1
             and not name.startswith("scipy._") and hasattr(mod, "__path__")))
law = measures.SimplexLaw(measures.GammaShape(1.0), 1.0, 3)
report = simulate.equilibrium_check(models.make_kernel("kmp"), models.Topology(models.NEAREST, 3),
                                    law, np.random.default_rng(1), n_events=20_000)
print(repr(report["p_value"]))
"""


def test_import_loads_only_linalg_and_special_and_the_check_still_runs():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run([sys.executable, "-c", FRESH_PROCESS], env=env, check=True,
                         capture_output=True, text=True).stdout.splitlines()
    assert out[0] == "['scipy.linalg', 'scipy.special']"
    law = SimplexLaw(GammaShape(1.0), 1.0, 3)
    report = equilibrium_check(make_kernel("kmp"), Topology(NEAREST, 3), law,
                               np.random.default_rng(1), n_events=20_000)
    assert out[1] == repr(report["p_value"])
