import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import betainc

from gapforge import bounds
from gapforge.bounds import (
    MovingPath,
    TheoremCheck,
    _assert_path_invariants,
    build_moving_path,
    check_compm2m,
    check_convex,
    check_negative_m_remark,
    check_prop21,
    check_scaling,
    check_stick_two_site,
    check_thm0,
    exact_gap_lr_m0,
    stick_two_site_lower,
)
from gapforge.measures import GammaShape, SimplexLaw, sample_matrix


def test_moving_path_adjacent_pair():
    assert build_moving_path(4, 5).sites == (4, 5)


def test_moving_path_reference_sequence():
    assert build_moving_path(1, 3).sites == (1, 2, 3, 1, 2, 3)


def test_moving_path_length():
    for i, j in ((1, 4), (2, 9), (5, 21)):
        k = j - i
        assert len(build_moving_path(i, j).sites) == 4 * k - 2


@given(i=st.integers(1, 20), j=st.integers(2, 21))
@settings(max_examples=60, deadline=None)
def test_moving_path_invariants_hold(i, j):
    # the constructor asserts the start, composition, step sizes, range and
    # usage counts; it must succeed for every admissible pair
    if i < j:
        build_moving_path(i, j)
    else:
        with pytest.raises(ValueError):
            build_moving_path(i, j)


def test_moving_path_refuses_a_negative_site():
    with pytest.raises(ValueError, match="got i = -2"):
        build_moving_path(-2, 1)
    assert build_moving_path(0, 2).sites == (0, 1, 2, 0, 1, 2)


# paths that break one invariant each and keep every other, so each check is
# the only one that refuses its path: (i, j, sites, the check's message)
BROKEN_PATHS = {
    "start": (1, 3, (3, 2, 1, 3, 2, 1), "start at i"),  # the path read backwards
    "length": (1, 3, (1, 3), r"4 \(j - i\) - 2 sites"),  # the long-range swap itself
    "step-3": (0, 3, (0, 1, 0, 1, 2, 0, 3, 1, 2, 3), "step size"),
    "step-0": (1, 3, (1, 1, 2, 1, 3, 3), "step size"),
    "range": (1, 3, (1, 0, 1, 2, 1, 3), r"lie in \[i, j\]"),  # a detour through site 0
    "composition": (1, 3, (1, 2, 1, 2, 3, 1), "composition"),
    "adjacent-cap": (1, 3, (1, 2, 1, 2, 1, 3), r"pair \(1, 2\) used 4 > 3"),
    "next-nearest-cap": (1, 3, (1, 2, 1, 3, 1, 3), r"pair \(1, 3\) used 3 > 1"),
}


@pytest.mark.parametrize("i, j, sites, message", BROKEN_PATHS.values(), ids=BROKEN_PATHS)
def test_path_checker_refuses_a_path_that_breaks_one_invariant(i, j, sites, message):
    with pytest.raises(AssertionError, match=message):
        _assert_path_invariants(MovingPath(i, j, sites))


def test_exact_gap_formula_values():
    assert exact_gap_lr_m0(1.0, 3) == pytest.approx(4.0 / 9.0)
    assert exact_gap_lr_m0(1.0, 2) == pytest.approx(0.5)


def test_thm0_checks_pass():
    for c in check_thm0(gamma_grid=(1.0,), n_range=range(2, 5)):
        assert c.passed, c.to_record()


def test_scaling_check_passes():
    c = check_scaling(1.0, 1.0, energies=(0.5, 2.0))
    assert c.passed and c.lhs < 1e-10


def test_convex_check_positive_margin():
    c = check_convex(1.0, 1.0)
    assert c.passed and c.margin > 0


def test_compm2m_check():
    c = check_compm2m(0.5, 1.0)
    assert c.passed and c.margin > 0
    assert c.params["kappa_tilde_m"] >= 1.0 / 3.0


def test_prop21_stick():
    c = check_prop21("stick")
    assert c.passed and c.lhs >= c.rhs


def test_stick_two_site_lower_closed_form():
    assert stick_two_site_lower(1.0) == 1.0
    assert stick_two_site_lower(2.0) == pytest.approx(1.0 / 16.0)
    assert stick_two_site_lower(3.0) == pytest.approx(1.0 / 108.0)


@pytest.mark.parametrize("m", [0.5, 0.25, float("nan")])
def test_stick_two_site_lower_refuses_m_below_one(m):
    # sup_a a^(m-1) (1 - 4a) is +inf for m < 1: no finite bound to check against
    with pytest.raises(ValueError, match="m >= 1"):
        stick_two_site_lower(m)
    with pytest.raises(ValueError, match="m >= 1"):
        check_stick_two_site(m_list=(m,))


def test_stick_two_site_checks():
    for c in check_stick_two_site():
        assert c.passed, c.to_record()


def test_negative_m_quotient_below_bound():
    c = check_negative_m_remark(n_samples=60_000, seed=3)
    assert c.passed, c.to_record()
    assert c.rhs == pytest.approx(0.125)


@pytest.mark.parametrize("arg, value, error", [
    ("n_samples", 0, ValueError), ("n_samples", 1, ValueError),
    ("n_samples", 2.5, TypeError), ("n_samples", True, TypeError),
    ("m", float("nan"), ValueError), ("m", -math.inf, ValueError),
    ("m", 0.0, ValueError), ("m", 1.0, ValueError),
])
def test_negative_m_check_refuses_what_it_cannot_use(arg, value, error):
    # fewer than two samples gave a NaN mean or stderr after numpy warnings, a
    # non-integer count died inside numpy, and m = nan gave a NaN record; the
    # remark is about m < 0 only
    with pytest.raises(error, match=f"{arg}.*got.*{value}"):
        check_negative_m_remark(**{"n_samples": 100, arg: value})


def _whole_draw_check(m: float = -1.0, n_sites: int = 16, gamma: float = 1.0,
                      n_samples: int = 200_000, seed: int = 0) -> TheoremCheck:
    """check_negative_m_remark as it was before it drew in row chunks: one
    (n_samples, N) draw."""
    rng = np.random.default_rng(seed)
    law = SimplexLaw(GammaShape(gamma), 1.0, n_sites)
    n = n_sites
    half = n / 2.0
    p = 1.0 - float(betainc(gamma, (n - 1) * gamma, 0.5))  # P(x_1 > N/2), x_1 = N Beta
    var = p * (1.0 - p)
    xs = sample_matrix(law, n_samples, rng)
    x1 = xs[:, 0]
    contrib = np.zeros(n_samples)
    for j in range(1, n):
        s = x1 + xs[:, j]
        thr = np.clip(half / s, 0.0, 1.0)
        tail = 1.0 - betainc(gamma, gamma, thr)  # P(alpha s > N/2)
        inner = np.where(x1 > half, 1.0 - tail, tail)
        contrib += s ** m * inner
    # D = (1/2) (1/N) sum_bonds E[Lambda * E_alpha (f(T x) - f(x))^2]; bonds not
    # containing site 1 vanish
    d_samples = 0.5 / n * contrib
    d_mean = float(d_samples.mean())
    d_err = float(d_samples.std(ddof=1) / math.sqrt(n_samples))
    lhs = d_mean / var
    sigma = d_err / var
    bound = 2.0 ** (-m) * n ** m
    return TheoremCheck(
        claim="negative-m-no-uniform-gap",
        params={"m": m, "N": n_sites, "gamma": gamma, "n_samples": n_samples,
                "stderr": sigma},
        lhs=float(lhs),
        rhs=bound,
        provenance="mc-estimate (Rayleigh quotient upper-bounds the gap)",
        passed=bool(lhs <= bound + 3.0 * sigma),
        note=f"quotient {lhs:.6f} +- {sigma:.6f} vs bound {bound:.6f}",
    )


@pytest.mark.parametrize("gamma", [0.5, 1.0, 2.0])
@pytest.mark.parametrize("n_samples", [bounds._SAMPLE_CHUNK - 1, bounds._SAMPLE_CHUNK,
                                       bounds._SAMPLE_CHUNK + 1, 50_000])
def test_negative_m_check_in_row_chunks_is_the_whole_draw(gamma, n_samples):
    chunked = check_negative_m_remark(gamma=gamma, n_samples=n_samples, seed=7)
    whole = _whole_draw_check(gamma=gamma, n_samples=n_samples, seed=7)
    assert repr(chunked.to_record()) == repr(whole.to_record())


def test_negative_m_check_holds_its_per_sample_terms_and_one_chunk():
    n_samples = 200_000
    tracemalloc.start()
    try:
        check_negative_m_remark(n_samples=n_samples)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # a few 8-byte per-sample arrays (the terms, their scaled copy and the
    # stderr's temporaries) and two chunk tables; the whole (n_samples, 16)
    # draw alone would take 25.6 MB
    assert peak <= 4 * 8 * n_samples + 2 * 16 * 8 * bounds._SAMPLE_CHUNK, peak


def test_theorem_check_record_shape():
    c = check_scaling(0.5, 1.0, energies=(2.0,))
    rec = c.to_record()
    assert set(rec) == {"claim", "params", "lhs", "rhs", "margin",
                        "provenance", "pass", "note"}
