import itertools
import tracemalloc

import numpy as np
import pytest

from scipy.special import gammaln

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


@pytest.mark.parametrize("degree", [0, -1])
def test_degree_below_one_is_refused(degree):
    law = SimplexLaw(GammaShape(1.0), 1.0, 3)
    with pytest.raises(ValueError, match="degree"):
        spectral_gap(law, make_kernel("kmp"), degree, NEAREST)
    with pytest.raises(ValueError, match="degree"):
        two_site_constant(make_kernel("gg3"), degree=degree)


# ---------------------------------------------------------------------------
# the entry-by-entry assembly loop, the reference for the array code, with its
# cached per-entry kernel integral


class _ReferenceIntegrals:
    def __init__(self, kernel):
        self.gamma = kernel.mechanical.gamma_rev
        self._exact = kernel.name in ("star", "kmp")
        grid = KernelIntegrals(kernel)
        self.alpha_nodes, self.beta_nodes = grid.alpha_nodes, grid.beta_nodes
        self._sqw = np.sqrt(grid.node_weights)
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
                val = float(np.dot(self._vec(a, b), self._vec(ap, bp)))
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
    m = kernel.mechanical.m
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
        law = SimplexLaw(kernel.mechanical.gamma_rev, 0.7, N)
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
