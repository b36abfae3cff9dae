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
