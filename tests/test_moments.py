import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from phasebounds import moments
from phasebounds.errors import DegenerateInputError


def count_set_partitions(m: int, k: int) -> int:
    """Brute-force oracle: partitions of an m-set into exactly k blocks,
    enumerated as restricted growth strings."""
    if m == 0:
        return 1 if k == 0 else 0

    def extend(prefix, max_label):
        if len(prefix) == m:
            yield max_label
            return
        for label in range(max_label + 2):
            yield from extend(prefix + [label], max(max_label, label))

    return sum(1 for top in extend([0], 0) if top == k - 1)


class TestStirling2:
    @pytest.mark.parametrize("m", range(0, 8))
    def test_matches_partition_enumeration(self, m):
        for k in range(0, m + 1):
            assert moments.stirling2(m, k) == count_set_partitions(m, k)

    def test_conventions(self):
        assert moments.stirling2(0, 0) == 1
        assert moments.stirling2(4, 2) == 7
        assert moments.stirling2(3, 3) == 1

    def test_order_past_the_recursion_limit(self):
        # S(n, k) = (1/k!) sum_j (-1)^j C(k, j) (k - j)^n, in exact ints
        n = 1000
        for k in (0, 1, 2, 3, 17, 250, 500, 998, 999, 1000):
            explicit = sum((-1) ** j * math.comb(k, j) * (k - j) ** n for j in range(k + 1))
            assert explicit % math.factorial(k) == 0
            assert moments.stirling2(n, k) == explicit // math.factorial(k)

    def test_argument_validation(self):
        with pytest.raises(ValueError):
            moments.stirling2(2, 3)
        with pytest.raises(ValueError):
            moments.stirling2(-1, 0)


class TestClosedForm:
    def test_fixed_values(self):
        assert moments.coherent_number_moment(1, 1.0) == 1.0
        assert moments.coherent_number_moment(0, 7.3) == 1.0
        assert moments.coherent_number_moment(4, 1.0) == 15.0
        assert moments.coherent_number_moment(2, 2.0) == 6.0
        # mu^4 + 6 mu^3 + 7 mu^2 + mu at mu = 4
        assert moments.coherent_number_moment(4, 4.0) == 756.0

    def test_order_past_the_recursion_limit_overflows(self):
        # some S(1000, k) exceeds the largest double
        with pytest.raises(OverflowError):
            moments.coherent_number_moment(1000, 1.0)

    def test_edge_values(self):
        assert moments.coherent_number_moment(0, 0.0) == 1.0
        for m in range(1, 6):
            assert moments.coherent_number_moment(m, 0.0) == 0.0

    def test_monotone_in_mu(self):
        grid = [0.0, 0.1, 0.5, 1.0, 2.0, 5.0, 20.0]
        for m in range(1, 9):
            values = [moments.coherent_number_moment(m, mu) for mu in grid]
            assert values == sorted(values)

    def test_overflow_raises(self):
        with pytest.raises(OverflowError):
            moments.coherent_number_moment(400, 10.0)

    def test_argument_validation(self):
        with pytest.raises(ValueError):
            moments.coherent_number_moment(-1, 1.0)
        with pytest.raises(ValueError):
            moments.coherent_number_moment(2, -0.5)
        with pytest.raises(TypeError):
            moments.coherent_number_moment(2.0, 1.0)


class TestPoissonSum:
    def test_fixed_values(self):
        assert moments.moment_via_poisson_sum(1, 1.0, 1e-12) == pytest.approx(1.0, abs=2e-12)
        assert moments.moment_via_poisson_sum(0, 0.0, 1e-12) == 1.0
        assert moments.moment_via_poisson_sum(4, 4.0, 1e-10) == pytest.approx(756.0, abs=1e-9)

    def test_agrees_with_closed_form_on_grid(self):
        for m in range(0, 13):
            for mu in (0.1, 0.5, 1.0, 2.0, 4.0, 9.0, 16.0):
                closed = moments.coherent_number_moment(m, mu)
                scale = max(1.0, closed)
                series = moments.moment_via_poisson_sum(m, mu, tail_tol=1e-12 * scale)
                assert abs(closed - series) / scale < 1e-10

    def test_tail_tolerance_is_respected(self):
        closed = moments.coherent_number_moment(3, 2.0)
        for tol in (1e-4, 1e-8, 1e-12):
            series = moments.moment_via_poisson_sum(3, 2.0, tol)
            assert abs(series - closed) <= tol + 1e-12 * closed

    def test_argument_validation(self):
        with pytest.raises(ValueError):
            moments.moment_via_poisson_sum(2, 1.0, 0.0)
        with pytest.raises(OverflowError):
            moments.moment_via_poisson_sum(2, 800.0, 1e-10)


@settings(max_examples=200, deadline=None)
@given(m=st.integers(min_value=1, max_value=10),
       mu=st.floats(min_value=1e-3, max_value=50.0))
def test_jensen_inequality_strict(m, mu):
    # E[n^2m] > (E[n^m])^2 for a nondegenerate distribution
    f_m = moments.coherent_number_moment(m, mu)
    f_2m = moments.coherent_number_moment(2 * m, mu)
    assert f_2m > f_m * f_m


@settings(max_examples=100, deadline=None)
@given(m=st.integers(min_value=0, max_value=8),
       mu=st.floats(min_value=0.0, max_value=30.0),
       tol_exp=st.integers(min_value=4, max_value=12))
def test_poisson_sum_tracks_closed_form(m, mu, tol_exp):
    closed = moments.coherent_number_moment(m, mu)
    tol = 10.0 ** (-tol_exp) * max(1.0, closed)
    series = moments.moment_via_poisson_sum(m, mu, tol)
    assert abs(series - closed) <= tol + 1e-11 * max(1.0, closed)


def test_second_moment_ratio():
    assert moments.second_moment_ratio(1, 1.0) == pytest.approx(2.0, rel=1e-15)
    # f(4)/f(2)^2 at mu = 1: 15 / 4
    assert moments.second_moment_ratio(2, 1.0) == pytest.approx(3.75, rel=1e-15)
    with pytest.raises(DegenerateInputError):
        moments.second_moment_ratio(1, 0.0)
