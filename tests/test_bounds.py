import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gapforge.bounds import (
    MovingPath,
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


def test_theorem_check_record_shape():
    c = check_scaling(0.5, 1.0, energies=(2.0,))
    rec = c.to_record()
    assert set(rec) == {"claim", "params", "lhs", "rhs", "margin",
                        "provenance", "pass", "note"}
