import math
from decimal import Decimal, localcontext

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from phasebounds import moments, oracle
from phasebounds.errors import CutoffError, DegenerateInputError


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


def decimal_moment(m: int, mu: float) -> Decimal:
    """sum_k S(m, k) mu^k in 60 digits, from the exact Stirling row."""
    with localcontext() as ctx:
        ctx.prec = 60
        x = Decimal(mu)
        return sum(moments.stirling2(m, k) * x ** k for k in range(m + 1))


class TestPoissonSum:
    """The reference the Stirling form is checked against: oracle.poisson_moments."""

    def test_fixed_values(self):
        assert oracle.poisson_moments(0.0, 2) == [1.0, 0.0, 0.0]
        assert oracle.poisson_moments(1.0, 1)[1] == pytest.approx(1.0, rel=1e-15)
        assert oracle.poisson_moments(4.0, 4)[4] == pytest.approx(756.0, rel=1e-15)

    def test_agrees_with_closed_form_on_grid(self):
        # 701 and above: past where a series from exp(-mu) underflows
        for mu in (0.1, 16.0, 701.0, 1e4, 9e4):
            series = oracle.poisson_moments(mu, 12)
            assert len(series) == 13
            for m, value in enumerate(series):
                exact = decimal_moment(m, mu)
                assert abs(Decimal(value) - exact) <= Decimal("1e-14") * max(exact, 1), (m, mu)

    def test_argument_validation(self):
        for mu in (-0.5, math.nan, math.inf):
            with pytest.raises(DegenerateInputError):
                oracle.poisson_moments(mu, 2)
        with pytest.raises(CutoffError):
            oracle.poisson_moments(1.5e5, 2)
        with pytest.raises(ValueError):
            oracle.poisson_moments(1.0, -1)


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
       mu=st.floats(min_value=0.0, max_value=30.0))
def test_poisson_sum_tracks_closed_form(m, mu):
    closed = moments.coherent_number_moment(m, mu)
    series = oracle.poisson_moments(mu, m)[m]
    assert abs(series - closed) <= 1e-11 * max(1.0, closed)


def test_second_moment_ratio():
    assert moments.coherent_moments(1, 1.0) == (1.0, 2.0, pytest.approx(2.0, rel=1e-15))
    # f(4)/f(2)^2 at mu = 1: 15 / 4
    assert moments.coherent_moments(2, 1.0)[2] == pytest.approx(3.75, rel=1e-15)
    with pytest.raises(DegenerateInputError):
        moments.coherent_moments(1, 0.0)
