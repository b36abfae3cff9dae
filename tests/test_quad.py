import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import roots_jacobi

from gapforge.galerkin import _GG2_TAU_CELLS, KernelIntegrals
from gapforge.measures import GammaShape, pair_alpha_moment
from gapforge.models import make_kernel
from gapforge.quad import (
    _jacobi_reference,
    _legendre_reference,
    beta_rule,
    gauss_rule,
    graded_rule,
    legendre_rule,
    orthonormal_values,
    power_rule,
    stieltjes_recurrence,
)


def test_beta_rule_matches_beta_moments():
    for g in (0.5, 1.0, 1.5, 3.0):
        u, w = beta_rule(g, g, 24)
        for a in range(6):
            exact = pair_alpha_moment(GammaShape(g), a, 0)
            assert abs(np.sum(w * u**a) - exact) < 1e-13


def test_beta_rule_asymmetric():
    u, w = beta_rule(1.0, 2.0, 16)
    # Beta(1,2): E[u] = 1/3, E[u^2] = 1/6
    assert abs(np.sum(w * u) - 1.0 / 3.0) < 1e-14
    assert abs(np.sum(w * u * u) - 1.0 / 6.0) < 1e-14


@given(g=st.floats(0.2, 5.0), n=st.integers(4, 40))
@settings(max_examples=40, deadline=None)
def test_beta_rule_is_probability_rule(g, n):
    u, w = beta_rule(g, g, n)
    assert np.all(u > 0) and np.all(u < 1)
    assert abs(w.sum() - 1.0) < 1e-12


def test_power_rule_endpoint_singularity():
    # integral over [0,1] of u^(-1/2) * u du = 2/3
    u, w = power_rule(0.0, 1.0, -0.5, 16, True)
    assert abs(np.sum(w * u) - 2.0 / 3.0) < 1e-13
    # integral over [0,1] of (1-u)^(-1/2) du = 2
    u, w = power_rule(0.0, 1.0, -0.5, 16, False)
    assert abs(w.sum() - 2.0) < 1e-13


def test_legendre_rule_polynomial_exactness():
    u, w = legendre_rule(-1.0, 2.0, 10)
    # integral of u^3 over [-1, 2] = 15/4
    assert abs(np.sum(w * u**3) - 15.0 / 4.0) < 1e-12


def test_stieltjes_orthonormality():
    u, w = beta_rule(1.5, 1.5, 60)
    a, b = stieltjes_recurrence(u, w, 12)
    vals = orthonormal_values(a, b, u)
    gram = (vals * w) @ vals.T
    assert np.max(np.abs(gram - np.eye(13))) < 1e-10


def _orthonormal_values_by_expression(a, b, points):
    # each row as one expression, allocating its temporaries
    points = np.asarray(points, dtype=float)
    out = np.empty((a.size, points.size))
    out[0] = 1.0
    if a.size > 1:
        out[1] = (points - a[0]) / b[1]
    for k in range(1, a.size - 1):
        out[k + 1] = ((points - a[k]) * out[k] - b[k] * out[k - 1]) / b[k + 1]
    return out


@pytest.mark.parametrize("rule, degree", [
    (lambda: beta_rule(1.0, 1.0, 48), 30), (lambda: beta_rule(0.4, 2.5, 40), 12),
    (lambda: power_rule(0.0, 0.3, -0.5, 48, True), 7), (lambda: legendre_rule(-1.0, 2.0, 6), 5),
    (lambda: legendre_rule(0.0, 1.0, 3), 1), (lambda: legendre_rule(0.0, 1.0, 3), 0),
])
def test_orthonormal_values_are_the_row_expressions(rule, degree):
    u, w = rule()
    a, b = stieltjes_recurrence(u, w, degree)
    # the measure's nodes, points off them (past both ends too), a stick node grid
    grids = [u, np.linspace(-0.5, 1.5, 1001), KernelIntegrals(make_kernel("stick")).alpha_nodes]
    for points in grids:
        assert np.array_equal(orthonormal_values(a, b, points),
                              _orthonormal_values_by_expression(a, b, points))


def test_graded_rule_log_singularity():
    # integral over [0,1] of -log(u) du = 1
    u, w = graded_rule(0.0, 1.0, "lo", n_per_cell=16, n_cells=20)
    assert abs(np.sum(-w * np.log(u)) - 1.0) < 1e-10


def test_graded_rule_refuses_cells_whose_nodes_round_together():
    # on [0, 1/2], 32 per cell, 31 cells put one node on the singular end 1/2 and
    # 32 cells two; 28 to 30 keep every node inside and strictly increasing
    for n_cells in (31, 32):
        with pytest.raises(ValueError, match=f"n_cells = {n_cells}"):
            graded_rule(0.0, 0.5, "hi", n_per_cell=32, n_cells=n_cells)
    for n_cells in (28, 29, 30):
        u, _ = graded_rule(0.0, 0.5, "hi", n_per_cell=32, n_cells=n_cells)
        assert 0.0 < u[0] and u[-1] < 0.5 and np.all(np.diff(u) > 0)
    # the gg2 tau rule's 28 cells, unchanged: each cell is its Gauss-Legendre map
    steps = np.array([0.35 ** k for k in range(1, _GG2_TAU_CELLS)])
    pts = np.sort(np.concatenate([[0.0, 0.5], 0.5 - 0.5 * steps]))
    xl, wl = np.polynomial.legendre.leggauss(32)
    u, w = graded_rule(0.0, 0.5, "hi", n_per_cell=32, n_cells=_GG2_TAU_CELLS)
    h = (pts[1:] - pts[:-1])[:, None]
    assert np.array_equal(u, (pts[:-1, None] + h * 0.5 * (1.0 + xl)).ravel())
    assert np.array_equal(w, (wl * h * 0.5).ravel())


@pytest.mark.parametrize("singular_at", ["middle", "both", "", None])
def test_graded_rule_refuses_an_unknown_singular_end(singular_at):
    # "middle" used to give one ungraded 8-node cell
    with pytest.raises(ValueError, match="singular_at"):
        graded_rule(0.0, 1.0, singular_at, n_per_cell=8, n_cells=5)


@pytest.mark.parametrize("lo, hi, expo, n, at_lo", [
    (0.0, 0.37, 0.5, 32, True),     # gg3, alpha < c
    (0.63, 1.0, 0.5, 32, False),    # gg3, alpha > max(beta, 1 - beta)
    (0.0, 0.41, 1.0, 48, False),    # stick m = 2: expo = m - 1
    (0.41, 1.0, 1.0, 48, True),
    (0.0, 0.8, -0.5, 48, False),    # stick m = 1/2
    (0.0, 0.5, 0.5, 48, True),      # beta grid, gamma = 3/2
    (0.5, 1.0, 0.5, 48, False),
])
def test_rules_are_the_affine_map_of_the_reference_rule(lo, hi, expo, n, at_lo):
    # the cached reference rule must give exactly the numbers of a fresh solve;
    # the second interval shares (n, expo) with the first, so it reads the cache
    xj, wj = roots_jacobi(n, 0.0, expo) if at_lo else roots_jacobi(n, expo, 0.0)
    xl, wl = np.polynomial.legendre.leggauss(n)
    for a, b in ((lo, hi), (lo, 0.5 * (lo + hi))):
        h = b - a
        u, w = power_rule(a, b, expo, n, at_lo)
        assert np.array_equal(u, a + h * 0.5 * (1.0 + xj))
        assert np.array_equal(w, wj * (h / 2.0) ** (expo + 1.0))
        u, w = legendre_rule(a, b, n)
        assert np.array_equal(u, a + (b - a) * 0.5 * (1.0 + xl))
        assert np.array_equal(w, wl * (b - a) * 0.5)


def test_legendre_array_ends_give_the_rows_of_one_interval_calls():
    def rule(lo, hi):
        return legendre_rule(lo, hi, 12)

    lo = np.array([[0.0, 0.13], [0.5, 0.3]])
    hi = np.array([[0.41, 0.87], [1.0, 0.3 + 1e-3]])
    u, w = rule(lo, hi)
    assert u.shape == w.shape == lo.shape + rule(0.0, 1.0)[0].shape
    for i, j in np.ndindex(lo.shape):
        ui, wi = rule(float(lo[i, j]), float(hi[i, j]))
        assert np.array_equal(u[i, j], ui) and np.array_equal(w[i, j], wi)
    u, w = rule(0.0, hi)  # a scalar end broadcasts
    assert np.array_equal(u[1, 0], rule(0.0, 1.0)[0])


def test_kernel_grid_is_the_same_on_every_build():
    first, second = KernelIntegrals(make_kernel("gg2")), KernelIntegrals(make_kernel("gg2"))
    for name in ("alpha_nodes", "beta_rows", "node_weights"):
        assert np.array_equal(getattr(first, name), getattr(second, name))


def test_cached_rules_are_read_only():
    for rule, args in ((beta_rule, (1.5, 1.5, 12)), (power_rule, (0.0, 0.5, -0.5, 12, True)),
                       (_legendre_reference, (12,)), (_jacobi_reference, (12, 0.0, -0.5))):
        u, w = rule(*args)
        u0, w0 = u.copy(), w.copy()
        with pytest.raises(ValueError):
            u[0] = 0.5
        with pytest.raises(ValueError):
            w *= 2.0
        u1, w1 = rule(*args)
        assert np.array_equal(u1, u0) and np.array_equal(w1, w0)


def test_gauss_rule_of_a_discretized_measure_is_its_gauss_rule():
    # Beta(2, 3) on a 64-node Gauss-Jacobi rule: the 12-node Gauss rule of that
    # discrete measure is the 12-node Beta(2, 3) rule
    u, w = beta_rule(2.0, 3.0, 64)
    x, v = gauss_rule(u, w, 12)
    ref_x, ref_w = beta_rule(2.0, 3.0, 12)
    assert np.max(np.abs(x - ref_x)) <= 1e-14 and np.max(np.abs(v / ref_w - 1.0)) <= 2e-13
