import math

import pytest

from borderlab.bounds import (
    border_subrank_lower_3d,
    dimension_upper_bound,
    generic_border_subrank_upper,
    generic_subrank,
    generic_subrank_interval,
    scan_table,
)

from paper_claims import dimension_upper_bound_equal_dims, max_locus_bounds


# ---------------------------------------------------------------------------
# the dimension formula
# ---------------------------------------------------------------------------

def test_dimension_upper_bound_pinned():
    assert dimension_upper_bound(3, (9, 9, 9), 3) == 851
    assert dimension_upper_bound(3, (3, 3, 3), 3) == 59


def test_dimension_upper_bound_r0():
    for d, dims in ((2, (4, 7)), (3, (2, 3, 5)), (4, (3, 3, 3, 3))):
        assert dimension_upper_bound(d, dims, 0) == math.prod(dims)


def test_equal_dims_form_matches():
    assert dimension_upper_bound_equal_dims(3, 9, 3) == 851
    assert dimension_upper_bound_equal_dims(3, 5, 0) == 125
    assert dimension_upper_bound_equal_dims(4, 8, 8) == dimension_upper_bound(4, (8,) * 4, 8)
    with pytest.raises(ValueError):
        dimension_upper_bound_equal_dims(3, 9, 4)


def test_equal_dims_form_full_grid():
    for d in range(2, 6):
        for n in range(1, 51):
            for r in range(0, n + 1, d):
                assert dimension_upper_bound_equal_dims(d, n, r) == dimension_upper_bound(
                    d, (n,) * d, r
                )


# ---------------------------------------------------------------------------
# generic border subrank upper bound
# ---------------------------------------------------------------------------

def test_generic_upper_pinned_1000():
    assert generic_border_subrank_upper(3, 1000) == 359


def test_generic_upper_small_n_vacuous():
    # at n = 9 the bound is vacuous: even r = 9 keeps the formula >= n^3
    assert dimension_upper_bound(3, (9, 9, 9), 9) >= 9**3
    assert generic_border_subrank_upper(3, 9) == 9


def test_generic_upper_n1():
    for d in (2, 3, 4):
        assert generic_border_subrank_upper(d, 1) == 1


def test_generic_upper_growth_sampled():
    # O(n^(1/(d-1))) for d = 3: the ratio r/sqrt(n) stays bounded on a
    # geometric grid up to 1e5
    for n in (10, 100, 1000, 10000, 100000):
        r = generic_border_subrank_upper(3, n)
        assert r * r <= 144 * n  # ratio r/sqrt(n) <= 12


# ---------------------------------------------------------------------------
# the three-factor lower bound and the interval
# ---------------------------------------------------------------------------

def test_lower_3d_pinned():
    assert border_subrank_lower_3d(9) == 3
    assert border_subrank_lower_3d(200) == 25
    assert border_subrank_lower_3d(4) == 1
    assert border_subrank_lower_3d(1) == 0  # clamped with a note in the docs


def test_interval_pinned():
    assert generic_subrank_interval(9) == (3, 5)
    assert generic_subrank_interval(200)[1] == 24
    assert generic_subrank_interval(1) == (0, 1)


def test_interval_ordering():
    for n in range(1, 500):
        lo, hi = generic_subrank_interval(n)
        assert 0 <= lo <= hi
        assert hi == generic_subrank(n)


# ---------------------------------------------------------------------------
# crossover
# ---------------------------------------------------------------------------

def test_crossover_rows():
    # the crossover columns of the three-factor table: n, the border lower
    # bound, the generic subrank and whether the first exceeds the second
    rows = scan_table(3, 200)
    crossover = {row["n"]: (row["d3_lower"], row["generic_subrank"], row["excess_flag"]) for row in rows}
    assert crossover[200] == (25, 24, True)
    assert crossover[9] == (3, 5, False)
    first = min(n for n, (_, _, excess) in crossover.items() if excess)
    assert first == 133  # regression value: 20 = isqrt(532)-3 > 19 = isqrt(397)
    assert all(excess == (lower > generic) for lower, generic, excess in crossover.values())


def test_crossover_consistency_with_upper_bound():
    # the lower and upper bounds never cross on a sampled grid
    for n in list(range(4, 200)) + [500, 1000, 5000, 10000]:
        assert border_subrank_lower_3d(n) <= generic_border_subrank_upper(3, n)


# ---------------------------------------------------------------------------
# the maximal-subrank locus
# ---------------------------------------------------------------------------

def test_max_locus_pinned():
    lower, upper = max_locus_bounds(3)
    assert lower == 24
    assert upper == 59


def test_max_locus_scan():
    for n in range(3, 100, 3):
        lower, upper = max_locus_bounds(n)
        assert lower <= upper
        assert upper == dimension_upper_bound(3, (n, n, n), n)
    with pytest.raises(ValueError):
        max_locus_bounds(4)


# ---------------------------------------------------------------------------
# table emitter rows
# ---------------------------------------------------------------------------

def test_scan_table_rows():
    rows = scan_table(3, 9)
    assert rows[-1] == {
        "n": 9,
        "d3_lower": 3,
        "generic_subrank": 5,
        "dmz_lo": 3,
        "border_upper": 9,
        "excess_flag": False,
    }
    other = scan_table(4, 3)
    assert other[0]["d3_lower"] is None
    assert other[0]["border_upper"] == 1


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: dimension_upper_bound(1, (3,), 0), "order must be at least 2"),
        (lambda: dimension_upper_bound(3, (3, 3), 0), "need 3 dimensions >= 1"),
        (lambda: dimension_upper_bound(3, (3, 0, 3), 0), "need 3 dimensions >= 1"),
        (lambda: dimension_upper_bound(3, (3, 3, 3), -1), "r must be nonnegative"),
        (lambda: generic_border_subrank_upper(3, 0), "need n >= 1 and d >= 2"),
        (lambda: generic_border_subrank_upper(1, 5), "need n >= 1 and d >= 2"),
        (lambda: scan_table(3, 0), "need n_max >= 1 and d >= 2"),
        (lambda: scan_table(1, 5), "need n_max >= 1 and d >= 2"),
    ],
    ids=["dim-order", "dim-count", "dim-zero", "dim-negative-r", "upper-n", "upper-order", "scan-n", "scan-order"],
)
def test_out_of_range_arguments_raise(call, message):
    with pytest.raises(ValueError, match=message):
        call()
