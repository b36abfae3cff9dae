"""Spans and counters recorded from outside the package.

The tracer replaces public functions of the gapforge modules with timing
wrappers.  Modules bind each other's names with ``from ... import``, so a
function is replaced in every gapforge namespace that holds it, not only in
the module that defines it.  Kernel callables are wrapped by rebuilding the
kernel with ``dataclasses.replace`` wherever a kernel factory returns one.

Every wrapped call pushes a frame, so self time (duration minus the time of
wrapped children) is exact for every name.  Calls of names marked hot (per
event or per matrix entry) are aggregated only; all other calls are also kept
as spans (id, name, start, end, parent id) and written as JSON at the end.

A patch point that no longer exists is recorded as absent, and the metrics
that depend on it are left out instead of failing the run.
"""

from __future__ import annotations

import dataclasses
import functools
import sys
import time

perf_counter = time.perf_counter

# (module, attribute, span name, hot)
FUNCTIONS = [
    ("quad", "beta_rule", "quad.beta_rule", True),
    ("quad", "power_rule", "quad.power_rule", True),
    ("quad", "legendre_rule", "quad.legendre_rule", True),
    ("quad", "graded_rule", "quad.graded_rule", True),
    ("quad", "stieltjes_recurrence", "quad.stieltjes_recurrence", True),
    ("quad", "orthonormal_values", "quad.orthonormal_values", True),
    ("measures", "dirichlet_moment", "measures.dirichlet_moment", True),
    ("measures", "sample_matrix", "measures.sample_matrix", False),
    ("galerkin", "assemble", "galerkin.assemble", False),
    ("galerkin", "solve_gap", "galerkin.solve_gap", False),
    ("galerkin", "spectral_gap", "galerkin.spectral_gap", False),
    ("galerkin", "jacobi_eigvalsh", "galerkin.eigensolve", False),
    ("galerkin", "two_site_constant", "galerkin.two_site_constant", False),
    ("galerkin", "sturm_count", "appendix.sturm_count", True),
    ("appendix", "tridiagonal_sup", "appendix.tridiagonal_sup", False),
    ("appendix", "kappa_tilde_1_bracket", "appendix.bracket", False),
    ("appendix", "verify_certificates", "appendix.verify_certificates", False),
    ("appendix", "verify_prop_a", "appendix.verify_prop_a", False),
    ("appendix", "verify_prop_b", "appendix.verify_prop_b", False),
    ("appendix", "verify_monotonicity_lemmas", "appendix.monotonicity", False),
    ("simulate", "run", "simulate.run", False),
    ("simulate", "estimate_gap_autocorr", "simulate.estimate", False),
    ("simulate", "slowest_mode_observable", "simulate.slowest_mode_observable", False),
    ("bounds", "check_scaling", "bounds.check_scaling", False),
    ("bounds", "check_thm0", "bounds.check_thm0", False),
    ("bounds", "check_convex", "bounds.check_convex", False),
    ("bounds", "check_compm2m", "bounds.check_compm2m", False),
    ("bounds", "check_compare_and_main", "bounds.check_compare_and_main", False),
    ("bounds", "check_prop21", "bounds.check_prop21", False),
    ("bounds", "check_negative_m_remark", "bounds.check_negative_m_remark", False),
    ("bounds", "check_stick_two_site", "bounds.check_stick_two_site", False),
    ("bounds", "check_kappa_chain", "bounds.check_kappa_chain", False),
    ("cli", "main", "cli.main", False),
]

KERNEL_FACTORIES = ["make_kernel", "star_kernel", "gg3_kernel", "gg2_kernel", "stick_kernel"]

# kernel field -> (span name, hot)
KERNEL_CALLABLES = {
    "alpha_rule": ("models.alpha_rule", True),
    "alpha_sampler": ("models.alpha_sampler", True),
    "rate": ("models.rate", True),
}

# uniform draws one proposal of the rejection samplers consumes
DRAWS_PER_PROPOSAL = {"gg3": 2, "gg2": 3}

PER_LAYER = [
    ("quad.calls", "count"),
    ("quad.s", "s"),
    ("quad.power_rule.hit_ratio", "ratio"),
    ("quad.beta_rule.hit_ratio", "ratio"),
    ("models.alpha_rule.calls", "count"),
    ("models.alpha_rule.s", "s"),
    ("galerkin.kernel_integrals.builds", "count"),
    ("galerkin.kernel_integrals.s", "s"),
    ("galerkin.kernel_integrals.nodes", "count"),
    ("galerkin.solve_gap.calls", "count"),
    ("galerkin.solve_gap.s", "s"),
    ("galerkin.eigensolve.calls", "count"),
    ("galerkin.eigensolve.s", "s"),
    ("galerkin.eigensolve.max_dim", "count"),
    ("galerkin.spectral_gap.calls", "count"),
    ("galerkin.assemble.calls", "count"),
    ("galerkin.assemble.s", "s"),
    ("measures.dirichlet_moment.calls", "count"),
    ("measures.dirichlet_moment.s", "s"),
    ("appendix.tridiagonal_sup.calls", "count"),
    ("appendix.tridiagonal_sup.s", "s"),
    ("appendix.sturm_count.calls", "count"),
    ("appendix.sturm_count.s", "s"),
    ("appendix.bracket.s", "s"),
    ("simulate.run.calls", "count"),
    ("simulate.run.events", "count"),
    ("simulate.run.s", "s"),
    ("simulate.run.events_per_s", "1/s"),
    ("models.alpha_sampler.calls", "count"),
    ("models.alpha_sampler.s", "s"),
    ("models.rate.calls", "count"),
    ("models.sampler.accept_ratio", "ratio"),
    ("simulate.pilot_event_share", "ratio"),
    ("simulate.estimate.self_s", "s"),
    ("simulate.observable.s", "s"),
    ("simulate.samples_mb", "MB"),
    ("measures.sample_matrix.s", "s"),
    ("bounds.self_s", "s"),
    ("cli.self_s", "s"),
    ("trace.overhead_s", "s"),
]


class _Frame:
    __slots__ = ("span_id", "name", "child_s")

    def __init__(self, span_id, name):
        self.span_id = span_id
        self.name = name
        self.child_s = 0.0


class _CountingRng:
    """Stands in for the generator handed to a sampler and counts uniforms."""

    def __init__(self):
        self.target = None
        self.draws = 0

    def random(self, *args, **kwargs):
        self.draws += 1
        return self.target.random(*args, **kwargs)

    def __getattr__(self, name):
        return getattr(self.target, name)


class Tracer:
    def __init__(self):
        self.spans = []  # (id, name, start, end, parent id)
        self.stats = {}  # name -> [calls, total_s, self_s]
        self.counters = {}
        self.absent = []
        self._stack = []
        self._next_id = 0
        self._restore = []
        self._originals = {}

    # -- recording -----------------------------------------------------

    def add(self, key, value):
        self.counters[key] = self.counters.get(key, 0) + value

    def maximum(self, key, value):
        self.counters[key] = max(self.counters.get(key, value), value)

    def parent_name(self):
        return self._stack[-1].name if self._stack else None

    def wrap(self, name, fn, hot=False, after=None):
        stack, spans, stats = self._stack, self.spans, self.stats
        stats.setdefault(name, [0, 0.0, 0.0])

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self._next_id += 1
            frame = _Frame(self._next_id, name)
            parent = stack[-1] if stack else None
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                dur = t1 - t0
                st = stats[name]
                st[0] += 1
                st[1] += dur
                st[2] += dur - frame.child_s
                if parent is not None:
                    parent.child_s += dur
                if not hot:
                    spans.append((frame.span_id, name, t0, t1,
                                  parent.span_id if parent else None))
            if after is not None:
                after(args, kwargs, result)
            return result

        wrapper.__wrapped_by_perfbench__ = True
        return wrapper

    # -- patching ------------------------------------------------------

    def _replace_everywhere(self, original, replacement):
        """Rebind every gapforge module global that holds ``original``."""
        for modname, mod in list(sys.modules.items()):
            if not (modname == "gapforge" or modname.startswith("gapforge.")) or mod is None:
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, replacement)
                    self._restore.append((mod, key, original))

    def install(self, gapforge):
        mods = {name: getattr(gapforge, name, None) for name in
                ("quad", "models", "measures", "galerkin", "appendix", "simulate", "bounds", "cli")}

        for modname, attr, name, hot in FUNCTIONS:
            original = getattr(mods[modname], attr, None) if mods[modname] else None
            if original is None or not callable(original):
                self.absent.append(f"{modname}.{attr}")
                continue
            self._originals[name] = original
            self._replace_everywhere(original, self.wrap(name, original, hot, self._after_hook(name)))

        galerkin = mods["galerkin"]
        ki = getattr(galerkin, "KernelIntegrals", None) if galerkin else None
        if ki is None:
            self.absent.append("galerkin.KernelIntegrals")
        else:
            init = ki.__init__

            def after_build(args, kwargs, result):
                nodes = getattr(args[0], "alpha_nodes", None)
                if nodes is not None:
                    self.add("galerkin.kernel_integrals.nodes", int(nodes.size))

            ki.__init__ = self.wrap("galerkin.kernel_integrals", init, False, after_build)
            self._restore.append((ki, "__init__", init))

        models = mods["models"]
        for attr in KERNEL_FACTORIES:
            original = getattr(models, attr, None) if models else None
            if original is None:
                self.absent.append(f"models.{attr}")
                continue
            self._replace_everywhere(original, self._wrap_factory(original))

    def _wrap_factory(self, factory):
        @functools.wraps(factory)
        def wrapper(*args, **kwargs):
            return self.wrap_kernel(factory(*args, **kwargs))
        return wrapper

    def wrap_kernel(self, kernel):
        """Same kernel with its callables timed (idempotent)."""
        if not dataclasses.is_dataclass(kernel):
            return kernel
        changes = {}
        for field, (name, hot) in KERNEL_CALLABLES.items():
            fn = getattr(kernel, field, None)
            if fn is None:
                self.absent.append(f"kernel.{field}")
                continue
            if getattr(fn, "__wrapped_by_perfbench__", False):
                continue
            if field == "alpha_sampler" and kernel.name in DRAWS_PER_PROPOSAL:
                fn = self._counting_sampler(fn, DRAWS_PER_PROPOSAL[kernel.name])
            changes[field] = self.wrap(name, fn, hot)
        return dataclasses.replace(kernel, **changes) if changes else kernel

    def _counting_sampler(self, sampler, draws_per_proposal):
        proxy = _CountingRng()

        def counted(a, b, rng):
            proxy.target = rng
            proxy.draws = 0
            value = sampler(a, b, proxy)
            self.add("sampler.accepted", 1)
            self.add("sampler.proposals", proxy.draws / draws_per_proposal)
            return value

        return counted

    def wrap_observable(self, observable):
        return self.wrap("simulate.observable", observable, True)

    def _after_hook(self, name):
        if name == "galerkin.eigensolve":
            def after(args, kwargs, result):
                self.maximum("galerkin.eigensolve.max_dim", int(len(result)))
            return after
        if name == "simulate.run":
            def after(args, kwargs, result):
                events = int(getattr(result, "n_events", 0))
                self.add("simulate.run.events", events)
                samples = getattr(result, "samples", None)
                if samples is not None:
                    self.maximum("simulate.samples_mb", samples.nbytes / 1e6)
                if self.parent_name() == "simulate.estimate":
                    self.add("simulate.estimate_events", events)
                    if kwargs.get("t_max") is None:
                        self.add("simulate.pilot_events", events)
            return after
        return None

    def uninstall(self):
        for target, key, original in reversed(self._restore):
            setattr(target, key, original)
        self._restore.clear()

    def cache_info(self):
        """(hits, misses) of the cached quadrature rules, by span name."""
        out = {}
        for name in ("quad.power_rule", "quad.beta_rule"):
            fn = self._originals.get(name)
            if fn is not None and hasattr(fn, "cache_info"):
                info = fn.cache_info()
                out[name] = (info.hits, info.misses)
        return out

    # -- results -------------------------------------------------------

    def metrics(self, cache_before, cache_after):
        """Per-layer metrics by name; names whose patch point is absent, or
        whose ratio has no base on this workload, are left out.  The tracing
        overhead needs an untraced round and is added by the caller."""
        m = {}
        st = self.stats

        def calls(name):
            return st[name][0] if name in st else None

        def total(name):
            return st[name][1] if name in st else None

        def put(key, value):
            if value is not None:
                m[key] = value

        quad_names = [n for n in st if n.startswith("quad.")]
        if quad_names:
            put("quad.calls", sum(st[n][0] for n in quad_names))
            put("quad.s", sum(st[n][2] for n in quad_names))
        for name in ("quad.power_rule", "quad.beta_rule"):
            if name in cache_before and name in cache_after:
                hits = cache_after[name][0] - cache_before[name][0]
                misses = cache_after[name][1] - cache_before[name][1]
                if hits + misses:
                    m[f"{name}.hit_ratio"] = hits / (hits + misses)
        for name in ("models.alpha_rule", "galerkin.solve_gap", "galerkin.eigensolve",
                     "galerkin.assemble", "measures.dirichlet_moment",
                     "appendix.tridiagonal_sup", "appendix.sturm_count", "simulate.run",
                     "models.alpha_sampler"):
            put(f"{name}.calls", calls(name))
            put(f"{name}.s", total(name))
        put("galerkin.spectral_gap.calls", calls("galerkin.spectral_gap"))
        put("models.rate.calls", calls("models.rate"))
        if "galerkin.kernel_integrals" in st:
            m["galerkin.kernel_integrals.builds"] = calls("galerkin.kernel_integrals")
            m["galerkin.kernel_integrals.s"] = total("galerkin.kernel_integrals")
            m["galerkin.kernel_integrals.nodes"] = self.counters.get(
                "galerkin.kernel_integrals.nodes", 0)
        if "galerkin.eigensolve" in st:
            m["galerkin.eigensolve.max_dim"] = self.counters.get("galerkin.eigensolve.max_dim", 0)
        put("appendix.bracket.s", total("appendix.bracket"))
        if "simulate.run" in st:
            m["simulate.run.events"] = self.counters.get("simulate.run.events", 0)
            if m["simulate.run.events"] and total("simulate.run"):
                m["simulate.run.events_per_s"] = m["simulate.run.events"] / total("simulate.run")
            m["simulate.samples_mb"] = self.counters.get("simulate.samples_mb", 0.0)
        if self.counters.get("sampler.proposals"):
            m["models.sampler.accept_ratio"] = (self.counters["sampler.accepted"]
                                               / self.counters["sampler.proposals"])
        if self.counters.get("simulate.estimate_events"):
            m["simulate.pilot_event_share"] = (self.counters.get("simulate.pilot_events", 0)
                                              / self.counters["simulate.estimate_events"])
        if "simulate.estimate" in st:
            m["simulate.estimate.self_s"] = st["simulate.estimate"][2]
        m["simulate.observable.s"] = total("simulate.observable") or 0.0
        put("measures.sample_matrix.s", total("measures.sample_matrix"))
        bounds_names = [n for n in st if n.startswith("bounds.")]
        if bounds_names:
            m["bounds.self_s"] = sum(st[n][2] for n in bounds_names)
        if "cli.main" in st:
            m["cli.self_s"] = st["cli.main"][2]
        return m

    def dump(self):
        return {
            "absent": self.absent,
            "stats": {name: {"calls": c, "total_s": t, "self_s": s}
                      for name, (c, t, s) in sorted(self.stats.items())},
            "counters": self.counters,
            "spans": [{"id": i, "name": n, "start": a, "end": b, "parent": p}
                      for i, n, a, b, p in self.spans],
        }
