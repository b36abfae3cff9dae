import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gapforge.measures import (
    GammaShape,
    SimplexLaw,
    dirichlet_moment,
    pair_alpha_moment,
    sample_matrix,
)


def test_gamma_shape_validation():
    with pytest.raises(ValueError):
        GammaShape(0.0)
    with pytest.raises(ValueError):
        GammaShape(-1.0)


def test_simplex_law_total_energy():
    law = SimplexLaw(GammaShape(1.0), 0.5, 4)
    assert law.total_energy == 2.0


@pytest.mark.parametrize("sites", [2.5, 3.0, True])
def test_simplex_law_refuses_a_sites_that_is_not_an_integer(sites):
    # 2.5 sites used to construct and then recurse without end in the Galerkin basis
    with pytest.raises(TypeError, match="sites"):
        SimplexLaw(GammaShape(1.0), 1.0, sites)
    assert SimplexLaw(GammaShape(1.0), 1.0, np.int64(3)).total_energy == 3.0


@pytest.mark.parametrize("sites", [1, 0, -3])
def test_simplex_law_refuses_fewer_than_two_sites(sites):
    # as Topology and build_basis do: no exchange acts on one site
    with pytest.raises(ValueError, match="sites must be at least 2"):
        SimplexLaw(GammaShape(1.0), 1.0, sites)
    assert SimplexLaw(GammaShape(1.0), 1.0, 2).total_energy == 2.0


@pytest.mark.parametrize("make", [lambda v: GammaShape(v), lambda v: SimplexLaw(GammaShape(1.0), v, 3)],
                         ids=["gamma", "mean_energy"])
@pytest.mark.parametrize("value", [True, False, 0.0, -1.0, np.inf, np.nan])
def test_a_bool_or_a_value_off_the_positive_reals_is_refused(make, value):
    with pytest.raises(ValueError, match="must be a positive finite number"):
        make(value)


def test_sample_matrix_constraint(rng):
    law = SimplexLaw(GammaShape(0.5), 2.0, 5)
    x = sample_matrix(law, 20, rng)
    assert x.shape == (20, 5)
    assert np.all(x > 0)
    assert np.all(np.abs(x.sum(axis=1) - 10.0) < 1e-10)


@pytest.mark.parametrize("gamma", [0.5, 1.0, 2.0])
@pytest.mark.parametrize("sites", [3, 16])
def test_sample_matrix_is_the_scaled_gamma_table_bit_for_bit(gamma, sites):
    law = SimplexLaw(GammaShape(gamma), 0.7, sites)
    x = sample_matrix(law, 2000, np.random.default_rng(11))
    g = np.random.default_rng(11).gamma(gamma, 1.0, size=(2000, sites))
    g = np.clip(g, np.finfo(float).tiny, None)
    assert np.array_equal(x, law.total_energy * g / g.sum(axis=1, keepdims=True))


@pytest.mark.parametrize("gamma", [0.5, 1.0, 2.5])
@pytest.mark.parametrize("sites", [2, 16])
@pytest.mark.parametrize("split", [(1, 9), (4, 1, 5), (3, 3, 3, 1), (1,) * 10])
def test_row_chunks_of_sample_matrix_are_one_draw(gamma, sites, split):
    # the negative-m check draws its configurations in row chunks and relies on
    # them being the rows of one draw, and on the generator then being where one
    # draw leaves it
    law = SimplexLaw(GammaShape(gamma), 0.7, sites)
    whole, chunked = np.random.default_rng(5), np.random.default_rng(5)
    x = sample_matrix(law, sum(split), whole)
    parts = [sample_matrix(law, rows, chunked) for rows in split]
    assert np.array_equal(np.vstack(parts), x)
    assert whole.random() == chunked.random()


def test_dirichlet_moment_against_sampling(rng):
    g, N = 1.5, 4
    law = SimplexLaw(GammaShape(g), 1.0, N)
    xs = sample_matrix(law, 400_000, rng) / N  # back to the sum-1 simplex
    k = np.array([2.0, 1.0, 0.0, 0.0])
    mc = float(np.mean(xs[:, 0] ** 2 * xs[:, 1]))
    exact = dirichlet_moment(GammaShape(g), N, k)
    assert abs(mc - exact) < 5e-5


def test_dirichlet_moment_closed_cases():
    # symmetric Dirichlet first moment is 1/N
    for g in (0.5, 1.0, 2.0):
        for N in (2, 3, 5):
            k = np.zeros(N)
            k[0] = 1.0
            assert abs(dirichlet_moment(GammaShape(g), N, k) - 1.0 / N) < 1e-14
    # uniform case gamma = 1, N = 2: E[w^2] = 1/3
    assert abs(dirichlet_moment(GammaShape(1.0), 2, [2, 0]) - 1.0 / 3.0) < 1e-14


def test_marginal_moment_is_beta_moment():
    from scipy.special import gammaln

    g, N, p = 0.7, 5, 3.0
    a, b = g, (N - 1) * g
    exact = np.exp(gammaln(a + p) + gammaln(a + b) - gammaln(a) - gammaln(a + b + p))
    # the single-site marginal on the sum-1 simplex is Beta(gamma, (N-1) gamma)
    assert abs(dirichlet_moment(GammaShape(g), N, [p, 0, 0, 0, 0]) - exact) < 1e-14


def test_pair_alpha_moment_symmetry():
    g = 1.3
    assert abs(pair_alpha_moment(GammaShape(g), 2, 3) - pair_alpha_moment(GammaShape(g), 3, 2)) < 1e-16
    assert abs(pair_alpha_moment(GammaShape(g), 0, 0) - 1.0) < 1e-15


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_dirichlet_moment_refuses_non_finite_exponents(bad):
    with pytest.raises(ValueError, match="finite"):
        dirichlet_moment(GammaShape(1.0), 3, [1.0, bad, 0.0])


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_pair_alpha_moment_refuses_non_finite_exponents(bad):
    with pytest.raises(ValueError, match="finite"):
        pair_alpha_moment(GammaShape(1.0), bad, 1.0)
    with pytest.raises(ValueError, match="finite"):
        pair_alpha_moment(GammaShape(1.0), 2.0, bad)
    with pytest.raises(ValueError, match="finite"):
        pair_alpha_moment(GammaShape(1.0), np.array([1.0, bad]), np.zeros(2))


def test_pair_alpha_moment_on_arrays_is_the_scalar_moment():
    g = GammaShape(0.7)
    a, b = np.meshgrid(np.arange(5.0), np.array([0.0, 0.5, 3.0]))
    want = [[pair_alpha_moment(g, x, y) for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]
    assert np.array_equal(pair_alpha_moment(g, a, b), np.array(want))


@given(
    g=st.floats(0.2, 4.0),
    N=st.integers(2, 6),
    k0=st.integers(0, 4),
    k1=st.integers(0, 4),
)
@settings(max_examples=60, deadline=None)
def test_dirichlet_moment_permutation_invariant(g, N, k0, k1):
    k = np.zeros(N)
    k[0], k[1] = k0, k1
    kp = np.zeros(N)
    kp[0], kp[1] = k1, k0
    a = dirichlet_moment(GammaShape(g), N, k)
    b = dirichlet_moment(GammaShape(g), N, kp)
    assert a == pytest.approx(b, rel=1e-12)
    assert 0.0 < a <= 1.0
