import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from gapforge import simulate
from gapforge.measures import GammaShape, SimplexLaw
from gapforge.models import (LONG_RANGE, NEAREST, RejectionLimitError, Topology, UniformSampler,
                             make_kernel)
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
    assert Topology(NEAREST, np.int64(3)).bonds() == [(0, 1), (1, 2)]
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


@pytest.mark.parametrize("sites", [2.5, 3.0, True])
def test_topology_refuses_a_sites_that_is_not_an_integer(sites):
    with pytest.raises(TypeError, match="sites"):
        Topology(NEAREST, sites)


def test_run_requires_the_kernel_reversible_law(rng):
    # gg3 is reversible for gamma = 3/2; a gamma = 1 start is not its equilibrium
    law = SimplexLaw(GammaShape(1.0), 1.0, 3)
    with pytest.raises(ValueError, match="gamma"):
        run(make_kernel("gg3"), Topology(NEAREST, 3), law, rng, n_events=10)


def test_equilibrium_marginal(rng):
    law = SimplexLaw(GammaShape(1.0), 1.0, 3)
    rep = equilibrium_check(make_kernel("kmp"), Topology(NEAREST, 3), law, rng)
    assert rep["pass"], rep


def test_equilibrium_check_keeps_its_grid():
    # the check thins a 2^18-sample grid, not run's one sample per event; this
    # report is the one it gave before the default grid followed the budget
    law = SimplexLaw(GammaShape(1.0), 1.0, 3)
    rep = equilibrium_check(make_kernel("stick"), Topology(NEAREST, 3), law,
                            np.random.default_rng(11), n_events=50_000)
    assert rep == {"kernel": "stick", "topology": "nearest", "sites": 3, "n_samples": 802,
                   "ks_statistic": 0.0342428080988324, "p_value": 0.29707951172746316,
                   "pass": True}


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
    x = [float(v) for v in simulate.sample_matrix(law, 1, rng)[0]]
    rate = kernel.rate
    sampler = kernel.alpha_sampler

    rates = [pref * rate(x[i], x[j]) for (i, j) in bonds]
    total = sum(rates)
    if not total > 0:
        return simulate.Trajectory(topo, kernel.name, np.zeros(1), np.array([x]),
                                   0, 0.0, flagged=True)

    if sample_dt is None:  # about one sample per (expected) event, at most 2^18
        horizon = min(t_max or math.inf, (n_events or math.inf) / total)
        sample_dt = max(horizon / min(n_events or t_max * total, 1 << 18), 1e-12)

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
            return simulate.Trajectory(topo, kernel.name,
                                       np.asarray(sample_times), np.asarray(samples),
                                       done, t, flagged=True)
    return simulate.Trajectory(topo, kernel.name,
                               np.asarray(sample_times), np.asarray(samples), done, t)


# (model, m, gamma, N, topology, events); kmp N=3 crosses the 8192-draw block;
# the three m = 0 shapes take run's constant-rate branch, the long-range ones
# with the non-dyadic bond rates 1/3, 1/16 and 1/5
ORACLE_SHAPES = [
    ("kmp", None, None, 3, NEAREST, 10_000),
    ("kmp", None, None, 16, LONG_RANGE, 1_000),
    ("kmp", None, None, 3, LONG_RANGE, 10_000),
    ("star", 0.0, 2.0, 5, LONG_RANGE, 9_000),
    ("stick", 1.0, None, 3, NEAREST, 2_000),
    ("stick", 2.0, None, 3, NEAREST, 2_000),
    ("gg3", None, None, 3, NEAREST, 2_000),
    ("gg2", None, None, 4, NEAREST, 300),
    ("star", 1.0, 1.0, 4, LONG_RANGE, 2_000),
]


def _counting_rate(kern):
    calls = [0]

    def rate(a, b):
        calls[0] += 1
        return kern.rate(a, b)
    return dataclasses.replace(kern, rate=rate), calls


def _assert_same_run(kern, topo, law, seed, make_rng=np.random.default_rng, **kwargs):
    rng_new, rng_ref = make_rng(seed), make_rng(seed)
    counted, calls = _counting_rate(kern)
    got = run(counted, topo, law, rng_new, **kwargs)
    want = _reference_run(kern, topo, law, rng_ref, **kwargs)
    # a star m = 0 run asks for each bond's rate once, before the first event
    if kern.name in ("star", "kmp") and kern.m == 0:
        assert calls[0] == len(topo.bonds())
    elif got.n_events:
        assert calls[0] > len(topo.bonds())
    _assert_same_trajectory(got, want, rng_new, rng_ref)
    return got


def _assert_same_trajectory(got, want, rng_got, rng_want):
    assert np.array_equal(got.samples, want.samples)
    assert np.array_equal(got.sample_times, want.sample_times)
    assert got.samples.dtype == want.samples.dtype == got.sample_times.dtype
    assert (got.n_events, got.total_time, got.flagged) == \
        (want.n_events, want.total_time, want.flagged)
    # the generator is left in the same state
    assert rng_got.random() == rng_want.random()


@pytest.mark.parametrize("shape", ORACLE_SHAPES, ids=lambda s: f"{s[0]}-m{s[1]}-N{s[3]}-{s[4]}")
def test_run_is_bit_identical_to_the_reference_loop(shape, monkeypatch):
    model, m, g, n, kind, events = shape
    kern = make_kernel(model, m=m, gamma=g)
    law = SimplexLaw(kern.gamma, 1.0, n)
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
    # a time budget that an event time meets exactly keeps that event
    exact = _assert_same_run(kern, topo, law, seed, t_max=horizon, sample_dt=horizon / 300)
    assert exact.n_events == events and exact.total_time == horizon
    # a run that fills the snapshot buffer
    monkeypatch.setattr(simulate, "_MAX_SAMPLES", 37)
    capped = _assert_same_run(kern, topo, law, seed, n_events=events, sample_dt=horizon / 100)
    assert capped.samples.shape[0] == 37


def _shape_run(shape):
    model, m, g, n, kind, events = shape
    kern = make_kernel(model, m=m, gamma=g)
    return kern, Topology(kind, n), SimplexLaw(kern.gamma, 1.0, n), events


@pytest.mark.parametrize("bit_generator", [np.random.MT19937, np.random.Philox, np.random.SFC64])
@pytest.mark.parametrize("shape", [ORACLE_SHAPES[0], ORACLE_SHAPES[6], ORACLE_SHAPES[7]],
                         ids=lambda s: s[0])
def test_run_is_bit_identical_for_every_bit_generator(shape, bit_generator):
    kern, topo, law, events = _shape_run(shape)
    # the kmp N=3 run crosses the 8192-event block, gg3 and gg2 refill the
    # drawn-ahead uniforms many times
    _assert_same_run(kern, topo, law, 23, lambda s: np.random.Generator(bit_generator(s)),
                     n_events=events)


def _mixed_sampler(a, b, rng):
    # random(), beta() with two parameter pairs and standard_normal(), each
    # from the generator itself, between the run's block draws
    u = rng.random()
    if u < 0.25:
        return float(rng.beta(2.0, 2.0))
    if u < 0.4:
        return float(rng.beta(0.5, 0.5))
    if u < 0.5:
        return 0.5 + 0.4 * math.tanh(rng.standard_normal())
    return rng.random()


def test_run_is_bit_identical_with_a_sampler_mixing_draws():
    kern = dataclasses.replace(make_kernel("kmp"), alpha_sampler=_mixed_sampler)
    law = SimplexLaw(GammaShape(1.0), 1.0, 3)
    # 9000 events cross the 8192-event block
    traj = _assert_same_run(kern, Topology(NEAREST, 3), law, 4, n_events=9_000)
    assert traj.n_events == 9_000


class _TiedUniforms(np.random.Generator):
    """Puts some of each block's uniforms at 1/2, 1/3 and 2/3, where u * total
    lands exactly on a cumulative bond rate of kmp N=3 (rates 1 or 1/3)."""

    def random(self, size=None, dtype=np.float64, out=None):
        u = super().random(size, dtype, out)
        if size == 8192:
            u[::7], u[1::7], u[2::7] = 0.5, 1.0 / 3.0, 2.0 / 3.0
        return u


@pytest.mark.parametrize("kind", [NEAREST, LONG_RANGE])
def test_a_uniform_on_a_cumulative_rate_picks_the_next_bond(kind):
    law = SimplexLaw(GammaShape(1.0), 1.0, 3)
    _assert_same_run(make_kernel("kmp"), Topology(kind, 3), law, 9,
                     lambda s: _TiedUniforms(np.random.PCG64(s)), n_events=9_000)


def test_generator_ends_where_the_reference_leaves_it_when_a_sampler_raises():
    def failing_after(limit):
        calls = [0]

        def sampler(a, b, rng):
            calls[0] += 1
            alpha = rng.random()
            if calls[0] == limit:
                raise RejectionLimitError("test", a / (a + b))
            return alpha
        return sampler

    law = SimplexLaw(GammaShape(1.0), 1.0, 3)
    for limit in (1, 777, 9000):  # the first draw, mid-block, the second block
        rngs = []
        for loop in (run, _reference_run):
            kern, calls = _counting_rate(
                dataclasses.replace(make_kernel("kmp"), alpha_sampler=failing_after(limit)))
            rngs.append(np.random.default_rng(limit))
            with pytest.raises(RejectionLimitError):
                loop(kern, Topology(NEAREST, 3), law, rngs[-1], n_events=20_000)
            if loop is run:  # the constant-rate branch raised
                assert calls[0] == 2
        assert rngs[0].bit_generator.state == rngs[1].bit_generator.state


@pytest.mark.parametrize("kind", [NEAREST, LONG_RANGE])
def test_constant_rates_are_asked_for_once_per_bond(kind):
    law = SimplexLaw(GammaShape(1.0), 1.0, 6)
    topo = Topology(kind, 6)
    kmp, calls = _counting_rate(make_kernel("kmp"))
    assert run(kmp, topo, law, np.random.default_rng(2), n_events=3_000).n_events == 3_000
    assert calls[0] == len(topo.bonds())
    # m = 1 rates move: every event asks again for the rates of the bonds it touches
    star, calls = _counting_rate(make_kernel("star", m=1.0, gamma=1.0))
    assert run(star, topo, law, np.random.default_rng(2), n_events=3_000).n_events == 3_000
    assert calls[0] >= len(topo.bonds()) + 3_000


def test_constant_rate_kernel_with_another_rate_is_refused():
    # a star m = 0 kernel whose rate is not its declared form (a + b) ** 0
    kern = make_kernel("star", m=0.0, gamma=2.0)
    wrong = dataclasses.replace(kern, rate=lambda a, b: 1.0 + a)
    law = SimplexLaw(GammaShape(2.0), 1.0, 4)
    for kind in (NEAREST, LONG_RANGE):
        with pytest.raises(ValueError, match="star kernel with m = 0"):
            run(wrong, Topology(kind, 4), law, np.random.default_rng(0), n_events=100)


def _freezing_after(kern, events):
    """The kernel with a plain uniform sampler and a rate that is exactly 0 from
    the rate call after the given number of events on a one-bond chain (one
    call at the start, then one per event)."""
    calls = [0]

    def rate(a, b):
        calls[0] += 1
        return kern.rate(a, b) if calls[0] <= events else 0.0
    return dataclasses.replace(kern, rate=rate, alpha_sampler=lambda a, b, rng: rng.random())


@pytest.mark.parametrize("events", [1, 100, 128, 8_200])
def test_a_run_whose_rates_fall_to_zero_stops_flagged_where_the_reference_does(events):
    # mid-chunk, at a chunk's last event and past the first 8192-event block
    kern = make_kernel("star", m=1.0, gamma=1.0)
    law, topo = SimplexLaw(GammaShape(1.0), 1.0, 2), Topology(NEAREST, 2)
    rng_new, rng_ref = np.random.default_rng(events), np.random.default_rng(events)
    got = run(_freezing_after(kern, events), topo, law, rng_new, n_events=20_000)
    want = _reference_run(_freezing_after(kern, events), topo, law, rng_ref, n_events=20_000)
    assert got.flagged and got.n_events == events
    assert got.total_time > 0 and got.total_time >= got.sample_times[-1]
    _assert_same_trajectory(got, want, rng_new, rng_ref)


def test_run_refuses_a_law_and_topology_of_different_sizes():
    law = SimplexLaw(GammaShape(1.0), 1.0, 4)
    with pytest.raises(ValueError, match="disagree on the number of sites"):
        run(make_kernel("kmp"), Topology(NEAREST, 3), law, np.random.default_rng(0), n_events=10)


def test_draws_ahead_serve_the_generator_stream():
    rng, ref = np.random.default_rng(3), np.random.default_rng(3)
    ahead = simulate._DrawAhead(rng)
    # a block drawn at once, of which the caller takes part: the next block
    # and settling hand the rest back
    block = ahead.draw(("beta", 2.0, 2.0), 16)
    got = [next(block), next(block), next(block)]
    want = [ref.beta(2.0, 2.0), ref.beta(2.0, 2.0), ref.beta(2.0, 2.0)]
    block = ahead.draw(("beta", 0.5, 0.5), 8)
    got += [next(block), next(block)]
    want += [ref.beta(0.5, 0.5), ref.beta(0.5, 0.5)]
    uniforms = ahead.uniforms()
    got += [next(uniforms) for _ in range(30)]  # across batches of 8 and 16
    want += [ref.random() for _ in range(30)]
    assert repr(got) == repr(want)
    ahead.settle()
    assert rng.bit_generator.state == ref.bit_generator.state
    # a block taken whole leaves nothing to hand back
    for v in ahead.draw(("random",), 5):
        assert v == ref.random()
    ahead.settle()
    assert rng.bit_generator.state == ref.bit_generator.state


@pytest.mark.parametrize("shape", ORACLE_SHAPES, ids=lambda s: f"{s[0]}-m{s[1]}-N{s[3]}-{s[4]}")
def test_run_is_bit_identical_across_log_flushes(shape, monkeypatch):
    # the event log is sampled every _LOG_EVENTS events (checked every
    # _REFRESH_EVERY); a small size makes every oracle run flush many times
    monkeypatch.setattr(simulate, "_LOG_EVENTS", 50)
    kern, topo, law, events = _shape_run(shape)
    seed = [7, events]
    traj = _assert_same_run(kern, topo, law, seed, n_events=events)
    assert traj.n_events > 4 * simulate._REFRESH_EVERY
    horizon = traj.total_time
    # coarse and fine grids, and a cap reached in a later flush
    _assert_same_run(kern, topo, law, seed, n_events=events, sample_dt=horizon / 7)
    _assert_same_run(kern, topo, law, seed, t_max=0.6 * horizon, sample_dt=horizon / 5000)
    monkeypatch.setattr(simulate, "_MAX_SAMPLES", 301)
    capped = _assert_same_run(kern, topo, law, seed, n_events=events, sample_dt=horizon / 1000)
    assert capped.samples.shape[0] == 301


def test_event_log_memory_is_bounded():
    # 40k events and 3 samples: an event log kept whole until the end peaks
    # near 6 MB; flushed every _LOG_EVENTS events it stays under 2 MB
    law = SimplexLaw(GammaShape(1.0), 1.0, 3)
    rng = np.random.default_rng(5)
    tracemalloc.start()
    try:
        traj = run(make_kernel("kmp"), Topology(NEAREST, 3), law, rng,
                   n_events=40_000, sample_dt=20_000.0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert traj.n_events == 40_000 and traj.samples.shape[0] <= 4
    assert peak < 3_000_000, peak


def test_sample_buffer_memory_is_bounded():
    # 100k kmp events on 16 sites at total rate 120 / 16 keep about 2^18
    # samples (34 MB): per-flush chunks joined at the end held them twice
    # (2.0x); one buffer pair grown in place by half its size peaked near
    # 1.4x, and capping that growth at the projected rows near 1.2x
    law = SimplexLaw(GammaShape(1.0), 1.0, 16)
    rng = np.random.default_rng(3)
    tracemalloc.start()
    try:
        traj = run(make_kernel("kmp"), Topology(LONG_RANGE, 16), law, rng, n_events=100_000,
                   sample_dt=100_000 / 7.5 / (1 << 18))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    kept = traj.samples.nbytes + traj.sample_times.nbytes
    assert traj.samples.shape == (traj.sample_times.size, 16)
    assert traj.samples.shape[0] > 200_000
    assert peak <= 1.25 * kept, peak / kept


@pytest.mark.parametrize("seed", [[3001, 6], [3002, 6]], ids=lambda s: str(s[0]))
def test_default_grid_keeps_about_one_sample_per_event(seed):
    # the grid is sized from the initial total rate, so the rows kept per
    # event follow its drift: 0.86-1.19 for this shape over seeds 0-39
    # (2^18 rows whatever the budget kept 226k-287k at these seeds)
    law = SimplexLaw(GammaShape(1.0), 1.0, 4)
    traj = run(make_kernel("gg2"), Topology(NEAREST, 4), law, np.random.default_rng(seed),
               n_events=3_000)
    assert 0.8 * 3_000 <= traj.samples.shape[0] <= 1.25 * 3_000


def test_default_grid_keeps_at_most_2_18_samples():
    law = SimplexLaw(GammaShape(1.0), 1.0, 3)
    kern, topo = make_kernel("kmp"), Topology(NEAREST, 3)
    # a time budget alone: one step per event expected at the constant total
    # rate 2 (t_max / 40,000), up to the last event about half a unit before t_max
    timed = run(kern, topo, law, np.random.default_rng(4), t_max=20_000.0)
    assert abs(timed.samples.shape[0] / 40_000 - 1) < 0.001
    # and at most 2^18 steps when more events are expected
    long = run(kern, topo, law, np.random.default_rng(4), t_max=140_000.0)
    assert abs(long.samples.shape[0] / (1 << 18) - 1) < 0.001
    # more events than 2^18: about 2^18 samples
    many = run(kern, topo, law, np.random.default_rng(4), n_events=400_000)
    assert abs(many.samples.shape[0] / (1 << 18) - 1) < 0.02


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


@pytest.mark.parametrize("n_events", [100.5, 1e4, True, "100"])
def test_run_and_estimate_refuse_a_budget_that_is_not_an_integer(n_events):
    law = SimplexLaw(GammaShape(1.0), 1.0, 3)
    args = (make_kernel("kmp"), Topology(NEAREST, 3), law, np.random.default_rng(0))
    for fn in (run, estimate_gap_autocorr):
        with pytest.raises(TypeError, match=repr(n_events)):
            fn(*args, n_events=n_events)


def test_run_accepts_a_numpy_integer_budget():
    law = SimplexLaw(GammaShape(1.0), 1.0, 3)
    traj = run(make_kernel("kmp"), Topology(NEAREST, 3), law, np.random.default_rng(0),
               n_events=np.int64(50))
    assert traj.n_events == 50


def test_run_refuses_a_generator_of_another_type():
    law = SimplexLaw(GammaShape(1.0), 1.0, 3)
    with pytest.raises(TypeError, match="RandomState"):
        run(make_kernel("kmp"), Topology(NEAREST, 3), law, np.random.RandomState(0),
            n_events=10)


@pytest.mark.parametrize("n_keep", [0, -3])
def test_equilibrium_check_refuses_a_keep_count_below_one(n_keep):
    law = SimplexLaw(GammaShape(1.0), 1.0, 3)
    with pytest.raises(ValueError, match=str(n_keep)):
        equilibrium_check(make_kernel("kmp"), Topology(NEAREST, 3), law,
                          np.random.default_rng(0), n_events=100, n_keep=n_keep)


@pytest.mark.parametrize("n_events", [10, 60, 500, 1000, 3000])
def test_estimate_with_a_small_budget_returns_an_estimate(n_events):
    # a short pilot whose autocorrelation stays above 1/e over its lag window
    # sampled too finely; refining it further left the main run one sample
    law = SimplexLaw(GammaShape(1.0), 1.0, 3)
    for seed in range(3):
        est = estimate_gap_autocorr(make_kernel("kmp"), Topology(NEAREST, 3), law,
                                    np.random.default_rng(seed), n_events=n_events)
        assert est.n_samples >= 2
        assert est.flagged or (math.isfinite(est.value) and est.value > 0)


def test_estimate_from_a_one_sample_run_is_flagged(monkeypatch):
    monkeypatch.setattr(simulate, "_MAX_SAMPLES", 1)
    law = SimplexLaw(GammaShape(1.0), 1.0, 3)
    est = estimate_gap_autocorr(make_kernel("kmp"), Topology(NEAREST, 3), law,
                                np.random.default_rng(0), n_events=1000)
    assert est.flagged and math.isnan(est.value) and est.n_samples == 1


# ---------------------------------------------------------------------------
# the estimator samples its observable from the event log, float for float
# what the observable gives on the full state rows of ``run``

def _reference_estimate(kernel, topo, law, rng, n_events, observable=None,
                        observable_name="centered_x1"):
    """The estimator on full state rows: ``run``, then the observable on the
    pilot's rows and on the main run's rows after burn-in."""
    def unfit(dt, n_samples):
        return simulate.GapEstimateMC(math.nan, math.nan, observable_name, (0, 0), 0.0,
                                      dt, n_samples, flagged=True)

    def values(rows):
        return rows[:, 0] if observable is None else observable(rows)

    pilot_events = min(30_000, n_events // 10)
    pilot_dt = lam_hat = None
    for _ in range(5):
        # the pilot's default grid aims at 2^18 samples, not one per event
        pilot = simulate._simulate(kernel, topo, law, rng, pilot_events, None, pilot_dt,
                                   lambda rows: rows, grid_rows=1 << 18)
        if pilot.sample_times.size < 2:
            return unfit(math.nan, pilot.sample_times.size)
        dt0 = float(pilot.sample_times[1] - pilot.sample_times[0])
        y0 = values(pilot.samples)
        idx = np.nonzero(simulate._autocorrelation(y0, min(y0.size // 4, 4096)) < 1 / math.e)[0]
        if idx.size and idx[0] > 2:
            lam_hat = 1.0 / (idx[0] * dt0)
            break
        pilot_dt = dt0 / 16.0 if idx.size else dt0 * 16.0
    if lam_hat is None:
        lam_hat = 1.0 / dt0
    sample_dt = 0.15 / lam_hat

    traj = run(kernel, topo, law, rng, n_events=n_events,
               t_max=sample_dt * (simulate._MAX_SAMPLES - 2), sample_dt=sample_dt)
    if traj.sample_times.size < 2:
        return unfit(sample_dt, traj.sample_times.size)
    dt = float(traj.sample_times[1] - traj.sample_times[0])
    y = np.ascontiguousarray(values(traj.samples[int(simulate._BURN_IN * traj.sample_times.size):]),
                             dtype=float)
    max_lag = min(y.size // 4, 1 << 14)
    fit = simulate._fit_decay(simulate._autocorrelation(y, max_lag), dt)
    if fit is None:
        return unfit(dt, y.size)
    value, window, r2 = fit
    batch_vals = []
    size = y.size // simulate._N_BATCHES
    for b in range(simulate._N_BATCHES):
        seg = y[b * size:(b + 1) * size]
        seg_fit = simulate._fit_decay(
            simulate._autocorrelation(seg, min(seg.size // 4, max_lag)), dt)
        if seg_fit is not None:
            batch_vals.append(seg_fit[0])
    stderr = (float(np.std(batch_vals, ddof=1) / math.sqrt(len(batch_vals)))
              if len(batch_vals) >= 3 else math.nan)
    return simulate.GapEstimateMC(
        value=value, stderr=stderr, observable=observable_name, window=window,
        r_squared=r2, dt=dt, n_samples=int(y.size),
        flagged=(r2 < simulate._R2_THRESHOLD) or not np.isfinite(stderr),
        diagnostics={
            "n_events": traj.n_events,
            "total_time": traj.total_time,
            "n_batches_used": len(batch_vals),
            "estimator": "log-autocorrelation least squares, window rho in [0.05, 0.8]",
        },
    )


# (model, m, gamma, N, topology) of the five mc-relax estimates
ESTIMATE_SHAPES = [
    ("kmp", 0.0, 1.0, 3, NEAREST),
    ("kmp", 0.0, 1.0, 3, LONG_RANGE),
    ("stick", 1.0, 1.0, 3, NEAREST),
    ("gg3", 0.5, 1.5, 3, NEAREST),
    ("star", 1.0, 1.0, 4, LONG_RANGE),
]


def _assert_same_estimate(kern, topo, law, seed, n_events, observable=None):
    rng_new, rng_ref = np.random.default_rng(seed), np.random.default_rng(seed)
    got = estimate_gap_autocorr(kern, topo, law, rng_new, n_events, observable)
    want = _reference_estimate(kern, topo, law, rng_ref, n_events, observable)
    # every field, NaN equal to NaN and 0.0 told from -0.0
    np.testing.assert_equal(dataclasses.asdict(got), dataclasses.asdict(want))
    assert rng_new.bit_generator.state == rng_ref.bit_generator.state
    return got


@pytest.mark.parametrize("settings", ["default", "short log", "small buffer"])
@pytest.mark.parametrize("shape", ESTIMATE_SHAPES, ids=lambda s: f"{s[0]}-N{s[3]}-{s[4]}")
def test_estimate_equals_the_observable_on_full_rows(shape, settings, monkeypatch):
    if settings == "short log":  # many flushes, each evaluating the observable
        monkeypatch.setattr(simulate, "_LOG_EVENTS", 300)
    elif settings == "small buffer":  # pilot and main run stopped by the buffer
        monkeypatch.setattr(simulate, "_MAX_SAMPLES", 700)
    model, m, g, n, kind = shape
    kern = make_kernel(model, m=m, gamma=g)
    law = SimplexLaw(kern.gamma, 1.0, n)
    topo = Topology(kind, n)
    obs = slowest_mode_observable(law, kern, 3, kind)
    for observable in (obs, None):
        est = _assert_same_estimate(kern, topo, law, [n, 28], 20_000, observable)
        assert est.n_samples > 2
        if settings == "small buffer":
            assert est.n_samples <= 700 - int(simulate._BURN_IN * 700)


def test_estimate_equals_the_observable_on_full_rows_where_runs_end_early(monkeypatch):
    law = SimplexLaw(GammaShape(1.0), 1.0, 3)
    topo = Topology(NEAREST, 3)
    obs = slowest_mode_observable(law, make_kernel("stick"), 3, NEAREST)
    # every rate 0: the first pilot is flagged at its first state
    still = dataclasses.replace(make_kernel("stick"), rate=lambda a, b: 0.0)
    est = _assert_same_estimate(still, topo, law, 1, 1000, obs)
    assert est.flagged and est.n_samples == 1
    # a one-sample pilot; three-sample pilots and a main run cut at one step
    for cap in (1, 3):
        monkeypatch.setattr(simulate, "_MAX_SAMPLES", cap)
        est = _assert_same_estimate(make_kernel("kmp"), topo, law, cap, 1000, obs)
        assert est.flagged


@pytest.mark.parametrize("observable", [lambda s: 0.5, lambda s: s[:, :1], lambda s: s[:-1, 0],
                                        lambda s: list(s[:, 0])],
                         ids=["float", "column", "short", "list"])
def test_estimate_refuses_an_observable_without_one_value_per_row(observable):
    law = SimplexLaw(GammaShape(1.0), 1.0, 3)
    with pytest.raises(ValueError, match=r"shape \(\d+,\)"):
        estimate_gap_autocorr(make_kernel("kmp"), Topology(NEAREST, 3), law,
                              np.random.default_rng(0), n_events=1000, observable=observable)


class _NoScalarDraws(np.random.Generator):
    """A generator whose scalar random() and beta() raise while ``strict``."""

    strict = True

    def random(self, size=None, dtype=np.float64, out=None):
        assert not (self.strict and size is None and out is None), "a scalar random() call"
        return super().random(size, dtype, out)

    def beta(self, a, b, size=None):
        assert not (self.strict and size is None), "a scalar beta() call"
        return super().beta(a, b, size)


def _assert_no_scalar_draws(kern, topo, law, seed, **budget):
    """run, given a generator that refuses scalar draws, equals the reference
    loop, which makes one scalar draw per alpha (or uniform)."""
    rng_new, rng_ref = _NoScalarDraws(np.random.PCG64(seed)), np.random.default_rng(seed)
    got = run(kern, topo, law, rng_new, **budget)
    rng_new.strict = False
    _assert_same_trajectory(got, _reference_run(kern, topo, law, rng_ref, **budget),
                            rng_new, rng_ref)
    return got


@pytest.mark.parametrize("shape", [ORACLE_SHAPES[0], ORACLE_SHAPES[8]], ids=lambda s: s[0])
def test_star_family_alphas_come_in_blocks_and_a_swapped_sampler_per_event(shape):
    kern, topo, law, events = _shape_run(shape)
    # run never calls the declared Beta(g, g) sampler, which would make a
    # scalar generator call for each alpha: its blocks come from array calls
    assert type(kern.alpha_sampler) is simulate.BetaSampler
    _assert_no_scalar_draws(kern, topo, law, 5, n_events=events)
    # the same law behind another callable keeps the per-event calls
    calls = [0]

    def sampler(a, b, rng):
        calls[0] += 1
        return float(rng.beta(1.0, 1.0))
    swapped = dataclasses.replace(kern, alpha_sampler=sampler)
    _assert_same_run(swapped, topo, law, 5, n_events=events)
    assert calls[0] == 2 * events  # run, then the reference loop


@pytest.mark.parametrize("shape", ORACLE_SHAPES[4:8], ids=lambda s: f"{s[0]}-m{s[1]}")
def test_uniform_samplers_take_batched_uniforms_and_a_wrapped_sampler_per_event(shape):
    kern, topo, law, _ = _shape_run(shape)
    events = 9_000  # across the 8192-event block, where the batches start afresh
    # run makes no scalar random() call when the sampler declares that it
    # draws only uniforms: they come from batches drawn ahead
    assert type(kern.alpha_sampler) is UniformSampler
    full = _assert_no_scalar_draws(kern, topo, law, 5, n_events=events)
    _assert_no_scalar_draws(kern, topo, law, 5, t_max=0.5 * full.total_time)
    # the same sampler behind a plain function asks the generator per event,
    # and the runs are the same, whichever budget stops them
    calls = [0]

    def wrapped(a, b, rng):
        calls[0] += 1
        return kern.alpha_sampler(a, b, rng)
    swapped = dataclasses.replace(kern, alpha_sampler=wrapped)
    for budget in ({"n_events": events}, {"t_max": 0.5 * full.total_time}):
        rng_declared, rng_wrapped = np.random.default_rng(5), np.random.default_rng(5)
        declared = run(kern, topo, law, rng_declared, **budget)
        calls[0] = 0
        _assert_same_trajectory(run(swapped, topo, law, rng_wrapped, **budget), declared,
                                rng_wrapped, rng_declared)
        assert calls[0] == declared.n_events


def test_generator_ends_where_the_reference_leaves_it_when_a_uniform_sampler_raises():
    stick = make_kernel("stick")

    def failing_after(limit):
        calls = [0]

        def draw(a, b, uniform):
            calls[0] += 1
            alpha = stick.alpha_sampler.draw(a, b, uniform)
            if calls[0] == limit:
                uniform()
                raise RejectionLimitError("test", a / (a + b))
            return alpha
        return UniformSampler(draw)

    law = SimplexLaw(GammaShape(1.0), 1.0, 3)
    for limit in (1, 777, 9000):  # the first draw, mid-block, the second block
        rngs = []
        for loop in (run, _reference_run):
            kern = dataclasses.replace(stick, alpha_sampler=failing_after(limit))
            rngs.append(np.random.default_rng(limit))
            with pytest.raises(RejectionLimitError):
                loop(kern, Topology(NEAREST, 3), law, rngs[-1], n_events=20_000)
        assert rngs[0].bit_generator.state == rngs[1].bit_generator.state


# ---------------------------------------------------------------------------
# the autocorrelation: one FFT zero-padded to a 5-smooth length >= n + max_lag

def test_fft_length_is_the_smallest_five_smooth_length():
    def smooth(j):
        for p in (2, 3, 5):
            while j % p == 0:
                j //= p
        return j == 1

    nxt = 5120  # 2^10 * 5
    for k in range(nxt, 0, -1):
        if smooth(k):
            nxt = k
        assert simulate._fft_length(k) == nxt, k


def _lag_sums(y, lags):
    # sum_t y_t y_{t+k} of the centred series, over its k = 0 sum
    y = y - y.mean()
    n = y.size
    return np.array([np.dot(y[:n - k], y[k:]) for k in lags]) / np.dot(y, y)


def _assert_matches_direct_sum(y, max_lag, rng):
    # FFT rounding is a fraction of the whole sum of squares, so each lag is
    # compared as its sum, rho_k (n - k) / n, not as its mean over n - k terms
    n = y.size
    rho = simulate._autocorrelation(y, max_lag)
    assert rho.shape == (max_lag + 1,)
    lags = np.arange(max_lag + 1)
    if max_lag > 3000:  # the first and last 500 lags and 500 between
        lags = np.r_[0:500, np.sort(rng.choice(np.arange(500, max_lag - 499), 500, replace=False)),
                     max_lag - 499:max_lag + 1]
    np.testing.assert_allclose(rho[lags] * (n - lags) / n, _lag_sums(y, lags),
                               rtol=0, atol=1e-12)


@pytest.mark.parametrize("n, max_lag", [
    (2, 0), (2, 1), (5, 0), (5, 4), (97, 0), (97, 96), (97, 28), (4096, 0),
    (4096, 4095), (4096, 1024), (100_000, 0), (100_000, 99_999), (100_000, 8_000),
    (100_000, 2_000), (300_000, 16_384), (32_769, 2_000), (81_920, 16_384), (81_921, 16_384),
])
def test_autocorrelation_matches_the_direct_sum(n, max_lag):
    # (97, 28), (4096, 0), (100_000, 0) and (100_000, 8_000): n + max_lag is
    # already 5-smooth, so the FFT has no spare point; (100_000, 2_000),
    # (100_000, 8_000), (300_000, 16_384), (32_769, 2_000) and
    # (81_921, 16_384) take 7, 4, 5, 3 (the last of one sample) and 2 blocks,
    # and (81_920, 16_384), one block and its max_lag tail, is one block
    rng = np.random.default_rng([n, max_lag])
    y = np.cumsum(rng.standard_normal(n))
    _assert_matches_direct_sum(y, max_lag, rng)


@pytest.mark.parametrize("n, max_lag", [
    (100, 25), (100, 99), (4096, 1024), (100_000, 2_000), (300_000, 16_384),
])
def test_autocorrelation_has_no_wraparound(n, max_lag):
    # large values at both ends and on both sides of every block edge: a
    # circular correlation over fewer than block + max_lag points would pair
    # a block's last samples with its first, or drop the pairs across an edge
    rng = np.random.default_rng(1)
    y = 1e-3 * rng.standard_normal(n)
    y[:3] += [50.0, -40.0, 30.0]
    y[-3:] += [-30.0, 45.0, 60.0]
    block = max(4 * max_lag, 1 << 14)
    for edge in range(block, n, block) if n > block + max_lag else ():
        y[edge - 2:edge + 2] += [35.0, -55.0, 40.0, -25.0]
    _assert_matches_direct_sum(y, max_lag, rng)


@pytest.mark.parametrize("n, max_lag", [
    (97, 28), (4096, 1024), (40_003, 10_000), (65_929, 16_384), (81_920, 16_384),
])
def test_autocorrelation_of_one_block_is_one_fft(n, max_lag):
    # a series of at most one block and its max_lag tail, as the estimator's
    # batch segments are, keeps the single power-spectrum FFT bit for bit
    y = np.cumsum(np.random.default_rng(n).standard_normal(n))
    m = simulate._fft_length(n + max_lag)
    f = np.fft.rfft(y - y.mean(), m)
    f *= f.conj()
    acf = np.fft.irfft(f, m)[:max_lag + 1] / np.arange(n, n - max_lag - 1, -1)
    got = simulate._autocorrelation(y, max_lag)
    assert np.array_equal(got, acf / acf[0])
    assert np.array_equal(np.signbit(got), np.signbit(acf / acf[0]))


@pytest.mark.parametrize("max_lag", [-1, 10, 11, 1000])
def test_autocorrelation_refuses_a_lag_outside_the_series(max_lag):
    # lag 10 of 10 samples has no pair to average over
    with pytest.raises(ValueError, match="max_lag"):
        simulate._autocorrelation(np.arange(10.0), max_lag)


def test_autocorrelation_refuses_a_series_that_is_not_one_dimensional():
    with pytest.raises(ValueError, match=r"1-D, got shape \(10, 1\)"):
        simulate._autocorrelation(np.arange(10.0)[:, None], 2)


def test_autocorrelation_memory_is_bounded():
    # an mc-relax size and a full sample buffer: one FFT over the whole
    # zero-padded series peaked near 2x the series (34 MB at 2^21); blocks
    # of 4 max_lag samples plus a max_lag tail hold a few of their
    # transforms, whatever n
    for n in (562_572, 1 << 21):
        y = np.random.default_rng(2).standard_normal(n)
        tracemalloc.start()
        try:
            rho = simulate._autocorrelation(y, 16_384)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert rho.shape == (16_385,) and rho[0] == 1.0
        assert peak <= 8_000_000, (n, peak)
