import functools
import itertools
import math
import tracemalloc

import numpy as np
import pytest

from scipy.linalg import eigvalsh
from scipy.special import gammaln, roots_jacobi

from gapforge import galerkin
from gapforge.galerkin import (
    KernelIntegrals,
    assemble,
    build_basis,
    kappa,
    kappa_tilde,
    spectral_gap,
    two_site_constant,
)
from gapforge.measures import GammaShape, SimplexLaw, dirichlet_moment, pair_alpha_moment
from gapforge.models import LONG_RANGE, NEAREST, Topology, make_kernel, star_kernel
from gapforge.quad import beta_rule, orthonormal_values, stieltjes_recurrence


def test_build_basis_counts():
    # dim = C(N-1+d, d)
    assert len(build_basis(3, 2)) == 6
    assert len(build_basis(4, 3)) == 20
    assert build_basis(2, 1) == [(0,), (1,)]


def test_bonds_for():
    # the bonds and the prefactor the generator sums over
    chain, complete = Topology(NEAREST, 4), Topology(LONG_RANGE, 4)
    assert chain.bonds() == [(0, 1), (1, 2), (2, 3)] and chain.prefactor == 1.0
    assert complete.bonds() == [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
    assert complete.prefactor == 0.25


def test_exact_m0_long_range_formula():
    for g in (0.5, 1.0, 2.0):
        for N in (2, 3, 4):
            law = SimplexLaw(GammaShape(g), 1.0, N)
            got = spectral_gap(law, star_kernel(0.0, GammaShape(g)), 3, LONG_RANGE).value
            want = (g * N + 1.0) / (N * (2.0 * g + 1.0))
            assert abs(got - want) < 1e-8


def test_two_site_gap_identity():
    # N = 2 gap is exactly 2^m E^m for the star family
    for m in (0.0, 1.0, 2.0):
        for E in (0.5, 2.0):
            law = SimplexLaw(GammaShape(1.0), E, 2)
            got = spectral_gap(law, star_kernel(m, GammaShape(1.0)), 4, NEAREST).value
            assert got == pytest.approx(2.0**m * E**m, rel=1e-6)


def test_history_non_increasing():
    law = SimplexLaw(GammaShape(1.0), 1.0, 3)
    res = spectral_gap(law, star_kernel(1.0, GammaShape(1.0)), 5, LONG_RANGE)
    h = np.array(res.history)
    assert np.all(np.diff(h) <= 1e-10)


def test_kappa_tilde_zero_reference():
    # long-range m = 0 three-site value at gamma = 1: 4/9 regardless of E
    assert kappa_tilde(0.0, 1.0, degree=3) == pytest.approx(4.0 / 9.0, abs=1e-8)


def test_kappa_above_kappa_tilde():
    for g in (0.5, 1.0, 2.0):
        assert kappa(1.0, g, degree=6) > kappa_tilde(1.0, g, degree=6)


def test_two_site_constant_star_is_one():
    assert two_site_constant(make_kernel("star", m=1.0, gamma=1.0)) == pytest.approx(1.0, abs=1e-8)


def test_gram_condition_reported():
    law = SimplexLaw(GammaShape(1.0), 1.0, 3)
    res = spectral_gap(law, star_kernel(0.0, GammaShape(1.0)), 3, NEAREST)
    assert np.isfinite(res.gram_condition) and res.gram_condition >= 1.0


@pytest.mark.parametrize("law, kernel, topology, top", [
    (SimplexLaw(GammaShape(1.5), 1.0, 3), make_kernel("gg3"), NEAREST, 4),
    (SimplexLaw(GammaShape(1.0), 1.0, 3), star_kernel(1.0, GammaShape(1.0)), LONG_RANGE, 5),
    (SimplexLaw(GammaShape(1.0), 1.0, 3), make_kernel("stick", m=2.0), NEAREST, 4),
])
def test_history_is_the_leading_block_gap(law, kernel, topology, top):
    # one assembly at the top degree; its leading blocks are the lower-degree pencils
    history = spectral_gap(law, kernel, top, topology).history
    for d in range(1, top):
        assert history[d - 1] == spectral_gap(law, kernel, d, topology).value


def test_law_must_be_the_kernel_reversible_law():
    gg3 = make_kernel("gg3")  # reversible for gamma = 3/2
    with pytest.raises(ValueError, match="gamma"):
        spectral_gap(SimplexLaw(GammaShape(1.0), 1.0, 3), gg3, 4, NEAREST)
    with pytest.raises(ValueError, match="gamma"):
        assemble(SimplexLaw(GammaShape(1.0), 1.0, 3), gg3, 2, LONG_RANGE)


def _repeated_betas(grid):
    """The beta node of every grid node: each of ``beta_rows`` once per alpha node of its row."""
    return np.repeat(grid.beta_rows, grid.alpha_nodes.size // grid.beta_rows.size)


def _node_slices(grid):
    """The grid's slices as node ranges, in node order: whole beta rows, at
    most ``_SLICE_NODES`` nodes each (one row where a row is longer)."""
    n = grid.alpha_nodes.size // grid.beta_rows.size
    step = n * max(1, galerkin._SLICE_NODES // n)
    return [slice(lo, lo + step) for lo in range(0, grid.alpha_nodes.size, step)]


def _two_site_differences(kernel, degree):
    """The grid and the weighted phi(alpha) - phi(beta) on the repeated-node
    grid, phi(beta) taken at every node."""
    grid = KernelIntegrals(kernel)
    g = kernel.gamma.gamma
    ra, rb = stieltjes_recurrence(*beta_rule(g, g, 4 * (degree + 2)), degree)
    phi_a = orthonormal_values(ra, rb, grid.alpha_nodes)
    phi_b = orthonormal_values(ra, rb, _repeated_betas(grid))
    return grid, (phi_a - phi_b)[1:] * np.sqrt(grid.node_weights)


def _reference_two_site(kernel, degree):
    """``two_site_constant`` on the repeated-node grid, its products summed
    slice by slice in node order."""
    grid, diff = _two_site_differences(kernel, degree)
    S = np.zeros((degree, degree))
    for nodes in _node_slices(grid):
        part = np.ascontiguousarray(diff[:, nodes])
        S += part @ part.T
    A = 0.5 * S
    return float(eigvalsh(0.5 * (A + A.T))[0])


# the two-site constants verify --suite theorems --fast computes
@pytest.mark.parametrize("name, m, degree", [
    ("stick", 1.0, 30), ("stick", 2.0, 30), ("stick", 3.0, 30),
    ("gg2", None, 20), ("gg3", None, 20), ("stick", None, 20),
])
def test_two_site_constant_matches_the_repeated_node_formula(name, m, degree):
    kernel = make_kernel(name, m=m)
    assert repr(two_site_constant(kernel, degree)) == repr(_reference_two_site(kernel, degree))


def _traced_peak(call):
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _grid_bytes(grid):
    return grid.alpha_nodes.nbytes + grid.node_weights.nbytes


# gg3 has the largest grid with rows, read in two slices
def test_two_site_constant_holds_one_value_table():
    kernel = make_kernel("gg3")
    grid = KernelIntegrals(kernel)
    assert grid.beta_rows.size == 98 and grid.alpha_nodes.size == 14_406
    for degree in (30, 47):
        peak = _traced_peak(lambda: two_site_constant(kernel, degree))
        # the grid and the (degree + 1, slice) values of one slice; a second
        # slice table, or a table over the whole grid, would not fit
        assert peak <= _grid_bytes(grid) + 1.5 * (degree + 1) * galerkin._SLICE_NODES * 8, (degree, peak)


def _bond_pairs(N, degree):
    """The distinct (a, b) exponent pairs of the nearest-neighbour bonds, as
    ``assemble`` passes them to the kernel matrix."""
    basis = build_basis(N, degree)
    K = np.zeros((len(basis), N), dtype=np.intp)
    K[:, :-1] = basis
    return np.unique(K[:, np.array(Topology(NEAREST, N).bonds())].reshape(-1, 2), axis=0)


# gg3 has the largest grid; gg2's rows are one node long, so a (pairs, beta
# rows) table of g_u(beta) would be as large as V
@pytest.mark.parametrize("name", ["gg3", "gg2", "stick"])
def test_kernel_matrix_holds_little_beside_its_vectors(name):
    kernel = make_kernel(name)
    pairs = _bond_pairs(3, 6)
    assert len(pairs) == 28
    peak = _traced_peak(lambda: galerkin._kernel_matrix(kernel, *pairs.T.astype(float)))
    # the grid and V over one slice: a second slice's V, or V over the whole grid,
    # would not fit
    grid = KernelIntegrals(kernel)
    assert peak <= _grid_bytes(grid) + 1.5 * len(pairs) * galerkin._SLICE_NODES * 8, peak


def test_gg2_grid_build_holds_little_beside_the_grid():
    kernel = make_kernel("gg2")
    grid = KernelIntegrals(kernel)
    kept = _grid_bytes(grid) + grid.beta_rows.nbytes
    # the pair rule's halves and their images take it to about 1.8 times the grid
    assert _traced_peak(lambda: KernelIntegrals(kernel)) <= 2 * kept


# values at the last degree the beta rules integrate exactly, and below it;
# the stick and gg3 ones agree with the closed-form pencil below
@pytest.mark.parametrize("name, m, degree, want", [
    ("star", 1.0, 30, "0.9999999999898566"), ("star", 1.0, 47, "0.9999999999877359"),
    ("stick", 2.0, 30, "0.5095007124074932"), ("stick", 2.0, 47, "0.5041098323960747"),
    ("gg3", None, 30, "0.546174386133598"), ("gg3", None, 47, "0.5461743861334087"),
])
def test_two_site_constant_up_to_the_degree_limit(name, m, degree, want):
    assert repr(two_site_constant(make_kernel(name, m=m), degree)) == want


# ---------------------------------------------------------------------------
# closed forms of the joint weight q(alpha, beta) = w_gamma(beta) Lambda_r(beta)
# p(beta, alpha) of stick and gg3, in mpmath (imported by the tests that use it)


def _stick_moments(mpmath, m):
    """(i, j) -> int int q alpha^i beta^j = m [B(i+1, m) + B(j+1, m)] / (i + j + m + 1)
    for q = m |alpha - beta|^(m-1): alpha < beta and alpha > beta give one term each."""
    m = mpmath.mpf(m)
    b = functools.lru_cache(None)(lambda i: mpmath.beta(i + 1, m))
    return lambda i, j: m * (b(i) + b(j)) / (i + j + m + 1)


def _gg3_moments(mpmath):
    """(i, j) -> int int q alpha^i beta^j for q = 2 sqrt(2/pi) sqrt(min(alpha, 1-alpha, beta, 1-beta)),
    as Beta integrals on [0, 1/2]: on beta <= 1/2, split at alpha = beta and
    1 - beta, with alpha^i beta^j and with its image (1 - alpha)^i (1 - beta)^j."""
    h = mpmath.mpf(1) / 2

    @functools.lru_cache(None)
    def I(p, q):
        # int_0^(1/2) x^p (1 - x)^q dx, by parts in q: positive terms only
        head = h ** (p + q + 1) / (p + 1)
        return head if q == 0 else head + q / (p + 1) * I(p + 1, q - 1)

    def moment(i, j):
        near = ((I(j + h, i + 1) - I(i + j + 1 + h, 0)) / (i + 1)  # beta <= alpha <= 1 - beta
                + h ** (i + j + 2 + h) / ((i + 1 + h) * (i + j + 2 + h))  # alpha < beta
                + (h ** (j + 1) * I(h, i) - I(j + 1 + h, i)) / (j + 1))  # alpha > 1 - beta
        image = ((I(h, i + j + 1) - I(i + 1 + h, j)) / (i + 1)
                 + (I(h, i + j + 1) - h ** (j + 1) * I(h, i)) / (j + 1)
                 + I(i + 1 + h, j) / (i + 1 + h))
        return 2 * mpmath.sqrt(2 / mpmath.pi) * (near + image)

    return moment


def _rule_moments(kernel, top):
    """sum_n w_n alpha_n^i beta_n^j over the kernel's node grid, i, j <= top."""
    grid = KernelIntegrals(kernel)
    k = np.arange(top + 1)[:, None]
    return (grid.alpha_nodes ** k * grid.node_weights) @ (_repeated_betas(grid) ** k).T


# stick m = 1/2 reaches 2.4e-13: scipy's 49-node Gauss-Jacobi weights for
# (1 - y)^(-1/2) differ from mpmath's by up to 3.5e-12 relative
@pytest.mark.parametrize("name, m, mass, tol", [
    ("stick", 0.5, 4.0 / 3.0, 3e-13), ("stick", 1.0, 1.0, 1e-13), ("stick", 2.0, 2.0 / 3.0, 1e-13),
    ("stick", 3.0, 0.5, 1e-13), ("gg3", None, 0.601802222450940, 1e-13),
])
def test_pair_rule_moments_are_the_closed_forms(name, m, mass, tol):
    import mpmath
    kernel = make_kernel(name, m=m)
    got = _rule_moments(kernel, 47)
    with mpmath.workdps(30):
        moment = _stick_moments(mpmath, m) if name == "stick" else _gg3_moments(mpmath)
        want = np.array([[float(moment(i, j)) for j in range(48)] for i in range(48)])
    assert got[0, 0] == pytest.approx(mass, rel=1e-14) and want[0, 0] == pytest.approx(mass, rel=1e-14)
    assert np.max(np.abs(got / want - 1.0)) <= tol
    # q is symmetric: swapping alpha and beta leaves each weighted sum unchanged,
    # up to the two sums' errors
    assert np.max(np.abs(got / got.T - 1.0)) <= 2 * tol


# 49 nodes per axis; gg2's rows are single nodes, read in two slices like gg3's
@pytest.mark.parametrize("name, m, nodes, slices", [
    ("stick", 1.0, 4_802, [4_802]), ("gg3", None, 14_406, [8_085, 6_321]), ("gg2", None, 9_604, [8_192, 1_412]),
])
def test_pair_rule_node_counts(name, m, nodes, slices):
    grid = KernelIntegrals(make_kernel(name, m=m))
    assert grid.alpha_nodes.size == grid.node_weights.size == nodes
    assert [al.size for _, al, _ in grid.slices()] == slices


# gg2's weight on alpha <= min(beta, 1 - beta), in alpha = r tau, beta = 1 - r (1 - tau):
# c r^(1/2) dr w(tau) dtau with w(tau) = K(tau / (1 - tau)) / sqrt(1 - tau) on [0, 1/2]
_GG2_MASS = 0.752252778063675049  # int_0^1 Lambda_r, mpmath.quad at 30 digits


def _gg2_weight(mpmath):
    """w(tau) in mpmath, each node's value kept: every quad on [0, 1/2] at one
    precision visits the same nodes."""
    return functools.lru_cache(None)(lambda t: mpmath.ellipk(t / (1 - t)) / mpmath.sqrt(1 - t))


def test_gg2_tau_rule_moments_are_mpmath_integrals():
    import mpmath
    t, w = galerkin._gg2_tau_rule(galerkin._N_BETA + 1)
    assert t.size == 49 and not t.flags.writeable and not w.flags.writeable
    k = np.arange(98)
    got = (t ** k[:, None]) @ w
    with mpmath.workdps(40):
        weight = _gg2_weight(mpmath)
        want = np.array([float(mpmath.quad(lambda x: x ** j * weight(x), [0, mpmath.mpf(1) / 2]))
                         for j in k.tolist()])
    assert np.max(np.abs(got / want - 1.0)) <= 1e-13


def test_gg2_pair_rule_mass_and_symmetries():
    grid = KernelIntegrals(make_kernel("gg2"))
    alpha, beta, w = grid.alpha_nodes, _repeated_betas(grid), grid.node_weights
    assert abs(w.sum() - _GG2_MASS) <= 1e-13
    assert np.all(w > 0) and np.all((alpha > 0) & (alpha < 1) & (beta > 0) & (beta < 1))

    def lexsorted(a, b):
        order = np.lexsort((b, a))
        return a[order], b[order], w[order]

    want = lexsorted(alpha, beta)
    # (beta, alpha) maps the nodes onto each other exactly; (1 - alpha, 1 - beta)
    # up to the rounding of 1 - (1 - x)
    for a, b, tol in ((beta, alpha, 0.0), (1.0 - alpha, 1.0 - beta, 2.3e-16)):
        got = lexsorted(a, b)
        assert np.max(np.abs(got[0] - want[0])) <= tol and np.max(np.abs(got[1] - want[1])) <= tol
        assert np.array_equal(got[2], want[2])


# int int q alpha^i beta^j for i + j <= 94, the rule's exact range: the r
# integral of each of the four images is a terminating 2F1, the tau one mpmath.quad
@pytest.mark.parametrize("i, j", [(1, 0), (3, 5), (47, 47), (94, 0), (20, 70), (93, 1)])
def test_gg2_pair_rule_mixed_moments_are_mpmath_integrals(i, j):
    import mpmath
    got = _rule_moments(make_kernel("gg2"), max(i, j))[i, j]
    with mpmath.workdps(40):
        weight = _gg2_weight(mpmath)

        def r_integral(n, k, x):  # int_0^1 r^(k + 1/2) (1 - r x)^n dr
            return mpmath.hyp2f1(-n, k + 1.5, k + 2.5, x) / (k + 1.5)

        def images(t):  # (r tau, 1 - r s), (1 - r s, r tau), (1 - r tau, r s), (r s, 1 - r tau)
            s = 1 - t
            return (t ** i * r_integral(j, i, s) + t ** j * r_integral(i, j, s)
                    + s ** j * r_integral(i, j, t) + s ** i * r_integral(j, i, t))

        want = float(mpmath.sqrt(2 / mpmath.pi ** 3)
                     * mpmath.quad(lambda t: weight(t) * images(t), [0, mpmath.mpf(1) / 2]))
    assert abs(got / want - 1.0) <= 1e-13, (got, want)


def _two_site_oracle(mpmath, moment, gamma, degrees):
    """The two-site constant at each degree from closed-form moments: the lowest
    eigenvalue of the pencil (A, G) on x, ..., x^d, with
    A[k, l] = (1/2) int int q (alpha^k - beta^k)(alpha^l - beta^l) and G the
    Beta(gamma, gamma) covariance.  The basis is nested, so each degree's
    pencil is a leading block of the largest."""
    d, g = max(degrees), mpmath.mpf(gamma)
    moment = functools.lru_cache(None)(moment)
    mom = [mpmath.beta(g + n, g) / mpmath.beta(g, g) for n in range(2 * d + 1)]
    A, G = mpmath.matrix(d, d), mpmath.matrix(d, d)
    for k, l in itertools.product(range(1, d + 1), repeat=2):
        A[k - 1, l - 1] = (moment(k + l, 0) + moment(0, k + l) - moment(k, l) - moment(l, k)) / 2
        G[k - 1, l - 1] = mom[k + l] - mom[k] * mom[l]
    L = mpmath.cholesky(G)
    out = []
    for n in degrees:
        Li = mpmath.inverse(L[:n, :n])
        S = Li * A[:n, :n] * Li.T
        out.append(float(min(mpmath.eigsy((S + S.T) / 2, eigvals_only=True))))
    return out


# the pins above against the closed-form pencil, solved at 100 digits: the
# monomial Gram matrix at degree 47 has condition near 1e70, and 100 and 130
# digits give the same 25 digits
@pytest.mark.parametrize("name, m", [("stick", 2.0), ("gg3", None)])
def test_two_site_constant_agrees_with_the_closed_form_pencil(name, m):
    import mpmath
    kernel = make_kernel(name, m=m)
    with mpmath.workdps(100):
        moment = _stick_moments(mpmath, m) if name == "stick" else _gg3_moments(mpmath)
        want = _two_site_oracle(mpmath, moment, kernel.gamma.gamma, (30, 47))
    for degree, exact in zip((30, 47), want):
        assert abs(two_site_constant(kernel, degree) - exact) <= 1e-13 * exact, (degree, exact)


def _fsum_dot(x, y):
    """sum_n x_n y_n with the products summed exactly and rounded once."""
    return math.fsum((x * y).tolist())


# an independent oracle for the slice sums: a dropped or doubled slice fails it
@pytest.mark.parametrize("name, m", [("gg2", None), ("gg3", None), ("stick", 1.0), ("stick", 0.5)])
def test_kernel_matrix_agrees_with_the_exactly_summed_node_products(name, m):
    kernel = make_kernel(name, m=m)
    pairs = _bond_pairs(3, 3)
    I = galerkin._kernel_matrix(kernel, *pairs.T.astype(float))
    ref = _ReferenceIntegrals(kernel)
    vecs = [ref._vec(a, b) for a, b in pairs.tolist()]
    for u, v in itertools.combinations_with_replacement(range(len(pairs)), 2):
        exact = _fsum_dot(vecs[u], vecs[v])
        assert abs(I[u, v] - exact) <= 1e-13 * math.sqrt(I[u, u] * I[v, v]), (u, v, I[u, v], exact)


# the pinned cases of the star, stick and gg3 grids (one, one and two slices)
@pytest.mark.parametrize("name, m, degree", [
    ("star", 1.0, 30), ("star", 1.0, 47), ("stick", 2.0, 30), ("stick", 2.0, 47),
    ("gg3", None, 30), ("gg3", None, 47),
])
def test_two_site_constant_agrees_with_an_exactly_summed_matrix(name, m, degree):
    kernel = make_kernel(name, m=m)
    _, diff = _two_site_differences(kernel, degree)
    A = np.empty((degree, degree))
    for i, j in itertools.combinations_with_replacement(range(degree), 2):
        A[i, j] = A[j, i] = 0.5 * _fsum_dot(diff[i], diff[j])
    want = float(eigvalsh(A)[0])
    assert abs(two_site_constant(kernel, degree) - want) <= 1e-13 * want


def test_two_site_degree_past_the_rules_is_refused():
    # star m = 1 would give 0.5 at degree 48 instead of 1
    with pytest.raises(ValueError, match="47"):
        two_site_constant(make_kernel("star", m=1.0), degree=48)


@pytest.mark.parametrize("m, gamma, N", [
    (-4.5, 1.0, 3),  # gave -0.6638527728817469: gammaln drops Gamma's sign
    (-3.2, 0.5, 3),
    (-4.5, 1.0, 4),
    (-4.0, 1.0, 3),  # m + 2 gamma = -2, the first infinite bond moment
    (-2.0, 1.0, 3),  # m + 2 gamma = 0 and -1: Gamma poles times zero entries
    (-3.0, 1.0, 3),
    (-1.0, 0.5, 5),
])
def test_star_exponents_without_galerkin_moments_are_refused(m, gamma, N):
    law = SimplexLaw(GammaShape(gamma), 1.0, N)
    for topology in (NEAREST, LONG_RANGE):
        with pytest.raises(ValueError, match=f"m = {m:g} with gamma = {gamma:g}"):
            spectral_gap(law, star_kernel(m, GammaShape(gamma)), 2, topology)


def test_star_exponents_with_galerkin_moments_keep_their_gap():
    law = SimplexLaw(GammaShape(1.0), 1.0, 3)
    for m in (-3.999, -2.5, -2.001):  # finite moments, away from the poles
        assert spectral_gap(law, star_kernel(m, GammaShape(1.0)), 2, LONG_RANGE).value > 0
    # two sites have no bond moment: the gap stays 2^m E^m at any m
    two = SimplexLaw(GammaShape(1.0), 1.0, 2)
    assert spectral_gap(two, star_kernel(-4.5, GammaShape(1.0)), 2, NEAREST).value == \
        pytest.approx(2.0 ** -4.5, rel=1e-12)


@pytest.mark.parametrize("degree", [0, -1])
def test_degree_below_one_is_refused(degree):
    law = SimplexLaw(GammaShape(1.0), 1.0, 3)
    with pytest.raises(ValueError, match="degree"):
        spectral_gap(law, make_kernel("kmp"), degree, NEAREST)
    with pytest.raises(ValueError, match="degree"):
        two_site_constant(make_kernel("gg3"), degree=degree)


@pytest.mark.parametrize("degree", [True, 2.5, 3.0, "3"])
def test_a_degree_that_is_not_an_integer_is_refused(degree):
    # degree=True used to give the degree-1 gap, 2.5 to fail inside range
    law = SimplexLaw(GammaShape(1.0), 1.0, 3)
    for call in (lambda: spectral_gap(law, make_kernel("kmp"), degree, NEAREST),
                 lambda: two_site_constant(make_kernel("gg3"), degree=degree),
                 lambda: build_basis(3, degree)):
        with pytest.raises(TypeError, match="degree must be an integer"):
            call()


# ---------------------------------------------------------------------------
# the entry-by-entry assembly loop, the reference for the array code, with its
# cached per-entry kernel integral


class _ReferenceIntegrals:
    def __init__(self, kernel):
        self.gamma = kernel.gamma
        self._exact = kernel.name in ("star", "kmp")
        grid = KernelIntegrals(kernel)
        self.alpha_nodes, self.beta_nodes = grid.alpha_nodes, _repeated_betas(grid)
        self._sqw = np.sqrt(grid.node_weights)
        self._slices = _node_slices(grid)
        self._vecs, self._cache = {}, {}

    def _vec(self, a, b):
        key = (a, b)
        v = self._vecs.get(key)
        if v is None:
            ga = self.alpha_nodes ** a * (1.0 - self.alpha_nodes) ** b
            gb = self.beta_nodes ** a * (1.0 - self.beta_nodes) ** b
            v = self._sqw * (ga - gb)
            self._vecs[key] = v
        return v

    def __call__(self, a, b, ap, bp):
        key = (a, b, ap, bp) if (a, b) <= (ap, bp) else (ap, bp, a, b)
        val = self._cache.get(key)
        if val is None:
            if self._exact:
                g = self.gamma
                val = 2.0 * (
                    pair_alpha_moment(g, a + ap, b + bp)
                    - pair_alpha_moment(g, a, b) * pair_alpha_moment(g, ap, bp)
                )
            else:
                v, vp = self._vec(a, b), self._vec(ap, bp)
                val = 0.0  # one dot per slice, summed in node order
                for nodes in self._slices:
                    val += float(np.dot(v[nodes], vp[nodes]))
            self._cache[key] = val
        return val


def _s_moment(gamma, N, p, q):
    a, b = 2.0 * gamma, (N - 2) * gamma
    log = (
        gammaln(a + p) + gammaln(b + q) + gammaln(a + b)
        - gammaln(a) - gammaln(b) - gammaln(a + b + p + q)
    )
    return float(np.exp(log))


def _reference_basis(N, degree):
    out = []
    for total in range(degree + 1):
        for k in itertools.product(range(total + 1), repeat=N - 1):
            if sum(k) == total:
                out.append(k)
    return out


def _reference_assemble(law, kernel, degree, topology=NEAREST):
    N, E = law.sites, law.mean_energy
    g = law.gamma.gamma
    m = kernel.m
    basis = _reference_basis(N, degree)
    dim = len(basis)
    full = np.zeros((dim, N), dtype=float)
    for q, k in enumerate(basis):
        full[q, : N - 1] = k
    topo = Topology(topology, N)
    bonds, wbond = topo.bonds(), topo.prefactor
    I = _ReferenceIntegrals(kernel)

    NE = N * E
    G = np.empty((dim, dim))
    for q in range(dim):
        for r in range(q, dim):
            k = full[q] + full[r]
            G[q, r] = G[r, q] = NE ** k.sum() * dirichlet_moment(law.gamma, N, k)

    A = np.zeros((dim, dim))
    rest_mask = np.ones(N, dtype=bool)
    for (i, j) in bonds:
        rest_mask[:] = True
        rest_mask[[i, j]] = False
        for q in range(dim):
            kq = full[q]
            a, b = kq[i], kq[j]
            for r in range(q, dim):
                kr = full[r]
                ap, bp = kr[i], kr[j]
                ival = I(a, b, ap, bp)
                if ival == 0.0:
                    continue
                krest = (kq + kr)[rest_mask]
                p = m + a + b + ap + bp
                if N == 2:
                    val = 0.5 * wbond * (2.0 * E) ** p * ival
                else:
                    val = (
                        0.5
                        * wbond
                        * NE ** (p + krest.sum())
                        * _s_moment(g, N, p, krest.sum())
                        * dirichlet_moment(GammaShape(g), N - 2, krest)
                        * ival
                    )
                A[q, r] += val
                if r != q:
                    A[r, q] += val
    return A, G, basis


_KERNELS = (
    # gamma = 0.4 is not dyadic, so a reordered float sum of gamma and an
    # exponent shows in the last bit (the appendix's kappa~ brackets use it)
    [("star", m, g) for m in (0.0, 0.5, 1.0) for g in (0.5, 1.0, 2.0)] + [("star", 1.0, 0.4)]
    + [("kmp", None, None), ("gg2", None, None), ("gg3", None, None),
       ("stick", 1.0, None), ("stick", 2.0, None)]
)


@pytest.mark.parametrize("name, m, gamma", _KERNELS)
def test_assemble_matches_the_reference_loop(name, m, gamma, monkeypatch):
    kernel = make_kernel(name, m=m, gamma=gamma)
    cases = [(2, 6, NEAREST), (3, 6, LONG_RANGE), (4, 3, NEAREST), (5, 2, LONG_RANGE)]
    if name in ("star", "kmp"):  # closed-form kernel matrix: the larger cases stay cheap
        # N = 9 puts 8 or more terms into the Dirichlet log-sums, where numpy
        # switches to its unrolled pairwise summation
        cases += [(3, 5, NEAREST), (4, 4, LONG_RANGE), (5, 3, NEAREST), (9, 2, LONG_RANGE)]
    for N, degree, topology in cases:
        law = SimplexLaw(kernel.gamma, 0.7, N)
        A, G, basis = assemble(law, kernel, degree, topology)
        A_ref, G_ref, basis_ref = _reference_assemble(law, kernel, degree, topology)
        assert basis == basis_ref
        assert np.array_equal(G, G_ref), (N, degree, topology)
        # each entry takes the scalar formula's operations, so A is bit-equal;
        # the degree-8 kappa~ moves by up to 3.5e-7 when A changes in the last bit
        err = np.max(np.abs(A - A_ref)) / np.max(np.abs(A_ref))
        assert np.array_equal(A, A_ref), (N, degree, topology, err)
        # blocks of 3 rows, the last one short where 3 does not divide dim
        monkeypatch.setattr(galerkin, "_BLOCK_ENTRIES", 3 * len(basis) * N)
        A_blk, G_blk, _ = assemble(law, kernel, degree, topology)
        monkeypatch.undo()
        assert np.array_equal(A_blk, A) and np.array_equal(G_blk, G), (N, degree, topology)


def test_assemble_memory_is_bounded_by_blocks():
    N, degree = 16, 3
    kernel = star_kernel(1.0, GammaShape(1.0))
    law = SimplexLaw(GammaShape(1.0), 1.0, N)
    dim = len(build_basis(N, degree))
    tracemalloc.start()
    try:
        A, G, _ = assemble(law, kernel, degree, NEAREST)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert A.shape == G.shape == (dim, dim)
    # a few dim x dim float arrays; one (dim, dim, N) log-gamma table alone is N of them
    assert peak < 8 * dim * dim * 8, peak


# ---------------------------------------------------------------------------
# the beta-by-beta node grid build of the star family, the reference for the
# array grid: a freshly solved beta grid, times the alpha rule row by row


def _ref_power(lo, hi, expo, n, at_lo):
    h = hi - lo
    x, w = roots_jacobi(n, 0.0, expo) if at_lo else roots_jacobi(n, expo, 0.0)
    return lo + h * 0.5 * (1.0 + x), w * (h / 2.0) ** (expo + 1.0)


def _ref_beta_grid(kernel, n=48):
    g = kernel.gamma.gamma
    lognorm = gammaln(g) * 2 - gammaln(2 * g)
    u1, w1 = _ref_power(0.0, 0.5, g - 1.0, n, True)
    u2, w2 = _ref_power(0.5, 1.0, g - 1.0, n, False)
    w1 = w1 * (1.0 - u1) ** (g - 1.0) / math.exp(lognorm)
    w2 = w2 * u2 ** (g - 1.0) / math.exp(lognorm)
    return np.concatenate([u1, u2]), np.concatenate([w1, w2])


def _reference_grid(kernel):
    bu, bw = _ref_beta_grid(kernel)
    g = kernel.gamma.gamma
    au, aw = beta_rule(g, g, 48)  # the alpha rule, the same at every beta node
    return np.tile(au, bu.size), np.repeat(bu, au.size), np.concatenate([w * aw for w in bw])


# stick, gg3 and gg2 read no alpha rule: their grid is the pair rule, pinned to
# closed forms or mpmath above
@pytest.mark.parametrize("name, m, gamma", [
    ("star", 1.0, 1.5), ("star", 0.5, 0.5), ("kmp", None, None),
])
def test_kernel_grid_matches_the_per_beta_reference(name, m, gamma):
    grid = KernelIntegrals(make_kernel(name, m=m, gamma=gamma))
    alpha, beta, weights = _reference_grid(make_kernel(name, m=m, gamma=gamma))
    assert np.array_equal(grid.alpha_nodes, alpha)
    assert np.array_equal(_repeated_betas(grid), beta)
    assert np.array_equal(grid.node_weights, weights)
