import numpy as np
import pytest

from gapforge import simulate
from gapforge.measures import GammaShape, SimplexLaw
from gapforge.models import LONG_RANGE, NEAREST, Topology, make_kernel
from gapforge.simulate import (
    equilibrium_check,
    estimate_gap_autocorr,
    run,
    slowest_mode_observable,
    trajectory_to_csv,
)


def test_topology_validation():
    with pytest.raises(ValueError):
        Topology("ring", 4)
    with pytest.raises(ValueError):
        Topology(NEAREST, 1)
    assert Topology(LONG_RANGE, 4).prefactor == 0.25
    assert Topology(NEAREST, 4).prefactor == 1.0
    assert len(Topology(LONG_RANGE, 5).bonds()) == 10
    # the simulator re-exports the one definition
    assert (simulate.Topology, simulate.NEAREST, simulate.LONG_RANGE) == (Topology, NEAREST, LONG_RANGE)


def test_run_conserves_energy(rng):
    law = SimplexLaw(GammaShape(1.0), 1.0, 4)
    traj = run(make_kernel("kmp"), Topology(NEAREST, 4), law, rng, n_events=5000)
    totals = traj.samples.sum(axis=1)
    assert np.max(np.abs(totals - 4.0)) < 1e-9
    assert np.all(traj.samples > 0)
    assert traj.n_events == 5000
    assert not traj.flagged


def test_run_uniform_sample_grid(rng):
    law = SimplexLaw(GammaShape(1.0), 1.0, 3)
    traj = run(make_kernel("kmp"), Topology(NEAREST, 3), law, rng,
               n_events=2000, sample_dt=0.25)
    dts = np.diff(traj.sample_times)
    assert np.max(np.abs(dts - 0.25)) < 1e-12


def test_run_requires_budget(rng):
    law = SimplexLaw(GammaShape(1.0), 1.0, 3)
    with pytest.raises(ValueError):
        run(make_kernel("kmp"), Topology(NEAREST, 3), law, rng)


def test_run_requires_the_kernel_reversible_law(rng):
    # gg3 is reversible for gamma = 3/2; a gamma = 1 start is not its equilibrium
    law = SimplexLaw(GammaShape(1.0), 1.0, 3)
    with pytest.raises(ValueError, match="gamma"):
        run(make_kernel("gg3"), Topology(NEAREST, 3), law, rng, n_events=10)


def test_equilibrium_marginal(rng):
    law = SimplexLaw(GammaShape(1.0), 1.0, 3)
    rep = equilibrium_check(make_kernel("kmp"), Topology(NEAREST, 3), law, rng)
    assert rep["pass"], rep


def test_gap_estimate_two_site_kmp():
    # N = 2, m = 0: the gap is exactly 1 (chain topology)
    law = SimplexLaw(GammaShape(1.0), 1.0, 2)
    rng = np.random.default_rng(7)
    est = estimate_gap_autocorr(make_kernel("kmp"), Topology(NEAREST, 2), law,
                                rng, n_events=400_000)
    assert not est.flagged
    assert est.r_squared > 0.95
    assert abs(est.value - 1.0) < max(5.0 * est.stderr, 0.05)


def test_slowest_mode_observable_decays_at_gap():
    # LR N = 3 m = 0: x_1 relaxes at 1/2 but the gap is 4/9; the Galerkin
    # eigenvector observable must recover the smaller rate
    law = SimplexLaw(GammaShape(1.0), 1.0, 3)
    obs = slowest_mode_observable(law, make_kernel("kmp"), 3, LONG_RANGE)
    rng = np.random.default_rng(11)
    est = estimate_gap_autocorr(make_kernel("kmp"), Topology(LONG_RANGE, 3),
                                law, rng, n_events=600_000, observable=obs,
                                observable_name="galerkin_mode")
    assert not est.flagged
    assert abs(est.value - 4.0 / 9.0) < max(5.0 * est.stderr, 0.03)


def test_trajectory_csv_roundtrip(tmp_path, rng):
    law = SimplexLaw(GammaShape(1.0), 1.0, 3)
    traj = run(make_kernel("kmp"), Topology(NEAREST, 3), law, rng,
               n_events=200, sample_dt=0.1)
    path = tmp_path / "traj.csv"
    trajectory_to_csv(traj, str(path))
    data = np.genfromtxt(path, delimiter=",", names=True)
    assert data.shape[0] == traj.samples.shape[0]
    # 17 significant digits round-trip float64 exactly
    assert np.array_equal(data["x_1"], traj.samples[:, 0])


# ---------------------------------------------------------------------------
# the event loop is pinned, float for float, to the plain list-scanning loop

def _reference_adjacency(topo):
    touching = [[] for _ in range(topo.sites)]
    for b, (i, j) in enumerate(topo.bonds()):
        touching[i].append(b)
        touching[j].append(b)
    return touching


def _reference_run(kernel, topo, law, rng, n_events=None, t_max=None, sample_dt=None):
    """The straightforward loop: one snapshot row per grid point, a linear
    bond scan and membership tests on the touched bonds."""
    if n_events is None and t_max is None:
        raise ValueError("give n_events or t_max")
    if law.sites != topo.sites:
        raise ValueError("law and topology disagree on the number of sites")
    simulate.check_reversible_law(kernel, law)
    bonds = topo.bonds()
    touching = _reference_adjacency(topo)
    pref = topo.prefactor
    initial = simulate.EnergyConfiguration(simulate.sample_matrix(law, 1, rng)[0],
                                           law.mean_energy)
    x = [float(v) for v in initial.x]
    rate = kernel.rate
    sampler = kernel.alpha_sampler

    rates = [pref * rate(x[i], x[j]) for (i, j) in bonds]
    total = sum(rates)
    if not total > 0:
        return simulate.Trajectory(topo, kernel.name, initial, np.zeros(1), np.array([x]),
                                   0, 0.0, flagged=True)

    if sample_dt is None:
        horizon = t_max if t_max is not None else n_events / total
        sample_dt = max(horizon / (1 << 18), 1e-12)

    cap_events = n_events if n_events is not None else (1 << 62)
    cap_time = t_max if t_max is not None else float("inf")

    samples = [list(x)]
    sample_times = [0.0]

    t = 0.0
    next_sample = sample_dt
    done = 0
    block = 8192
    exp_block = rng.exponential(1.0, block)
    uni_block = rng.random(block)
    ptr = 0
    while done < cap_events:
        if ptr == block:
            exp_block = rng.exponential(1.0, block)
            uni_block = rng.random(block)
            ptr = 0
        t_next = t + exp_block[ptr] / total
        if t_next > cap_time:
            t = cap_time
            break
        while next_sample <= t_next and len(samples) < simulate._MAX_SAMPLES:
            samples.append(list(x))
            sample_times.append(next_sample)
            next_sample += sample_dt
        t = t_next
        u = uni_block[ptr] * total
        ptr += 1
        acc = 0.0
        b = len(rates) - 1
        for k, r in enumerate(rates):
            acc += r
            if u < acc:
                b = k
                break
        i, j = bonds[b]
        alpha = sampler(x[i], x[j], rng)
        s = x[i] + x[j]
        x[i] = alpha * s
        x[j] = s - alpha * s
        for k in touching[i]:
            total -= rates[k]
            bi, bj = bonds[k]
            rates[k] = pref * rate(x[bi], x[bj])
            total += rates[k]
        for k in touching[j]:
            if k in touching[i]:
                continue
            total -= rates[k]
            bi, bj = bonds[k]
            rates[k] = pref * rate(x[bi], x[bj])
            total += rates[k]
        done += 1
        if done % simulate._REFRESH_EVERY == 0:
            total = sum(rates)
        if not total > 0:
            return simulate.Trajectory(topo, kernel.name, initial,
                                       np.asarray(sample_times), np.asarray(samples),
                                       done, t, flagged=True)
    return simulate.Trajectory(topo, kernel.name, initial,
                               np.asarray(sample_times), np.asarray(samples), done, t)


# (model, m, gamma, N, topology, events); kmp N=3 crosses the 8192-draw block
ORACLE_SHAPES = [
    ("kmp", None, None, 3, NEAREST, 10_000),
    ("kmp", None, None, 16, LONG_RANGE, 1_000),
    ("stick", 1.0, None, 3, NEAREST, 2_000),
    ("stick", 2.0, None, 3, NEAREST, 2_000),
    ("gg3", None, None, 3, NEAREST, 2_000),
    ("gg2", None, None, 4, NEAREST, 300),
    ("star", 1.0, 1.0, 4, LONG_RANGE, 2_000),
]


def _assert_same_run(kern, topo, law, seed, **kwargs):
    rng_new, rng_ref = np.random.default_rng(seed), np.random.default_rng(seed)
    got = run(kern, topo, law, rng_new, **kwargs)
    want = _reference_run(kern, topo, law, rng_ref, **kwargs)
    assert np.array_equal(got.samples, want.samples)
    assert np.array_equal(got.sample_times, want.sample_times)
    assert got.samples.dtype == want.samples.dtype == got.sample_times.dtype
    assert (got.n_events, got.total_time, got.flagged) == \
        (want.n_events, want.total_time, want.flagged)
    # the generator is left in the same state
    assert rng_new.random() == rng_ref.random()
    return got


@pytest.mark.parametrize("shape", ORACLE_SHAPES, ids=lambda s: f"{s[0]}-m{s[1]}-N{s[3]}-{s[4]}")
def test_run_is_bit_identical_to_the_reference_loop(shape, monkeypatch):
    model, m, g, n, kind, events = shape
    kern = make_kernel(model, m=m, gamma=g)
    law = SimplexLaw(kern.mechanical.gamma_rev, 1.0, n)
    topo = Topology(kind, n)
    seed = [n, events]
    traj = _assert_same_run(kern, topo, law, seed, n_events=events)
    assert traj.n_events == events and traj.samples.shape[0] > 1
    horizon = traj.total_time
    # time budget only, then both budgets with either one binding
    _assert_same_run(kern, topo, law, seed, t_max=0.7 * horizon, sample_dt=horizon / 997)
    both = _assert_same_run(kern, topo, law, seed, n_events=events, t_max=0.5 * horizon,
                            sample_dt=horizon / 500)
    assert both.total_time == 0.5 * horizon and both.n_events < events
    _assert_same_run(kern, topo, law, seed, n_events=events // 2, t_max=horizon)
    # a run that fills the snapshot buffer
    monkeypatch.setattr(simulate, "_MAX_SAMPLES", 37)
    capped = _assert_same_run(kern, topo, law, seed, n_events=events, sample_dt=horizon / 100)
    assert capped.samples.shape[0] == 37


# ---------------------------------------------------------------------------
# inputs are checked where they enter

@pytest.mark.parametrize("kwargs", [
    {"n_events": 0}, {"n_events": -5}, {"t_max": 0.0}, {"t_max": -1.0},
    {"n_events": 10, "t_max": float("nan")}, {"n_events": 10, "t_max": float("inf")},
    {"n_events": 10, "sample_dt": 0.0}, {"n_events": 10, "sample_dt": -1.0},
    {"n_events": 10, "sample_dt": float("nan")}, {"n_events": 10, "sample_dt": float("inf")},
])
def test_run_refuses_bad_budgets(kwargs):
    law = SimplexLaw(GammaShape(1.0), 1.0, 3)
    with pytest.raises(ValueError):
        run(make_kernel("kmp"), Topology(NEAREST, 3), law, np.random.default_rng(0), **kwargs)


@pytest.mark.parametrize("n_events", [0, 5, 9])
def test_estimate_refuses_a_budget_without_a_pilot(n_events):
    law = SimplexLaw(GammaShape(1.0), 1.0, 3)
    with pytest.raises(ValueError, match="n_events"):
        estimate_gap_autocorr(make_kernel("kmp"), Topology(NEAREST, 3), law,
                              np.random.default_rng(0), n_events=n_events)
