import numpy as np
import pytest

from gapforge.galerkin import (
    assemble,
    build_basis,
    kappa,
    kappa_tilde,
    spectral_gap,
    two_site_constant,
)
from gapforge.measures import GammaShape, SimplexLaw
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
