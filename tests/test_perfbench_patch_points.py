"""The benchmark's tracer (perfbench/tracing.py) wraps gapforge functions by
name from outside the package.  A patch point it cannot resolve drops its
per-layer metrics from the benchmark, so each one is checked here."""

import dataclasses
import importlib
import importlib.util
from pathlib import Path

import pytest

from gapforge import galerkin, models, quad
from gapforge.measures import GammaShape

_TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
_spec = importlib.util.spec_from_file_location("perfbench_tracing", _TRACING)
tracing = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(tracing)

# FUNCTIONS entries whose function left gapforge before this check existed;
# the tracer reports them absent, and no BENCHMARK.json metric reads them
STALE = {"galerkin.jacobi_eigvalsh", "galerkin.sturm_count", "appendix.verify_monotonicity_lemmas"}

FACTORY_ARGS = {
    "make_kernel": ("kmp",),
    "star_kernel": (1.0, GammaShape(1.5)),
    "gg3_kernel": (),
    "gg2_kernel": (),
    "stick_kernel": (2.0,),
}
# the kernels whose node grid is an exact pair rule, with no alpha_rule
MECHANICAL_FACTORIES = {"gg3_kernel", "gg2_kernel", "stick_kernel"}


def test_traced_functions_resolve():
    absent = {f"{mod}.{attr}" for mod, attr, _, _ in tracing.FUNCTIONS
              if not callable(getattr(importlib.import_module(f"gapforge.{mod}"), attr, None))}
    assert absent == STALE


def test_kernel_integrals_has_the_traced_grid():
    grid = galerkin.KernelIntegrals(models.make_kernel("gg3"))
    assert grid.alpha_nodes.size == grid.node_weights.size > grid.beta_rows.size > 0


@pytest.mark.parametrize("factory", tracing.KERNEL_FACTORIES)
def test_kernel_factories_give_the_traced_callables(factory):
    kernel = getattr(models, factory)(*FACTORY_ARGS[factory])
    assert dataclasses.is_dataclass(kernel)  # the tracer rebuilds it with replace
    for name in tracing.KERNEL_CALLABLES:
        if name == "alpha_rule" and factory in MECHANICAL_FACTORIES:
            # the tracer skips a None field; the star family alone feeds the
            # models.alpha_rule metrics
            assert getattr(kernel, name) is None, (factory, name)
        else:
            assert callable(getattr(kernel, name, None)), (factory, name)


def test_cached_rules_report_their_cache():
    for rule in (quad.power_rule, quad.beta_rule):
        info = rule.cache_info()
        assert info.hits >= 0 and info.misses >= 0
