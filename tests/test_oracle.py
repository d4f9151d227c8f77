import ast
import importlib
import json
import math
import os
import pkgutil
import re
import subprocess
import sys
import tracemalloc
import types
from decimal import Decimal, localcontext
from functools import reduce
from itertools import accumulate, islice
from pathlib import Path

import numpy as np
import pytest

from phasebounds import cli, oracle, qfim, states, verify
from phasebounds.errors import CutoffError, DegenerateInputError, SizeLimitError
from phasebounds.moments import coherent_number_moment

from conftest import rel_frobenius

# the benchmark's op mix and output checks, read as tools/output_digest.py reads them
PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
sys.path.insert(0, str(PERFBENCH))
import mix  # noqa: E402
import refs  # noqa: E402
import run  # noqa: E402


def decimal_tails(mu: float) -> list[Decimal]:
    """P(X >= k) for X ~ Poisson(mu) at 60 digits, from terms built one by one from k = 0."""
    with localcontext() as ctx:
        ctx.prec = 60
        m = Decimal(mu)
        pmf = [(-m).exp()]
        while len(pmf) <= mu or pmf[-1] >= Decimal("1e-330"):
            pmf.append(pmf[-1] * m / len(pmf))
        return list(accumulate(reversed(pmf)))[::-1]


class TestTruncatedCoherent:
    def test_vacuum_amplitude(self):
        mode = oracle.truncated_coherent(0.0, 6)
        assert np.array_equal(mode.amplitudes, np.eye(7, dtype=complex)[0])
        assert mode.tail_mass == 0.0

    def test_norm_complement_is_tail(self):
        mode = oracle.truncated_coherent(1.0, 20)
        norm_sq = float(np.vdot(mode.amplitudes, mode.amplitudes).real)
        assert mode.tail_mass < 1e-15
        assert norm_sq == pytest.approx(1.0 - mode.tail_mass, abs=1e-15)

    def test_amplitude_formula(self):
        # e^{-alpha^2/2} alone underflows at alpha = 101; the walk from the mode does not
        for alpha, cutoff, levels in [(1.3, 12, (0, 3, 7)),
                                      (101.0, 10_400, (10_101, 10_201, 10_301))]:
            mode = oracle.truncated_coherent(alpha, cutoff)
            with localcontext() as ctx:
                ctx.prec = 60
                a = Decimal(alpha)
                for n in levels:
                    expected = (-a * a / 2).exp() * a ** n / Decimal(math.factorial(n)).sqrt()
                    assert mode.amplitudes[n] == pytest.approx(float(expected), rel=1e-13), n

    def test_complex_amplitude(self):
        mode = oracle.truncated_coherent(0.4 + 0.9j, 18)
        norm_sq = float(np.vdot(mode.amplitudes, mode.amplitudes).real)
        assert norm_sq == pytest.approx(1.0 - mode.tail_mass, abs=1e-14)
        assert mode.amplitudes[2] == pytest.approx(
            math.exp(-0.97 / 2) * (0.4 + 0.9j) ** 2 / math.sqrt(2), rel=1e-13)

    def test_cutoff_too_small(self):
        with pytest.raises(CutoffError) as err:
            oracle.truncated_coherent(2.0, 5, tail_tol=1e-12)
        assert str(oracle.minimal_cutoff(4.0, 1e-12)) in str(err.value)

    def test_minimal_cutoff_is_minimal(self):
        c = oracle.minimal_cutoff(4.0, 1e-12)
        assert oracle.truncated_coherent(2.0, c).tail_mass < 1e-12
        assert oracle.truncated_coherent(2.0, c - 1).tail_mass >= 1e-12


def recorded_tail(cutoff: int, alpha: float) -> float:
    """P(X > cutoff), X ~ Poisson(|alpha|^2): the tail truncated_coherent records."""
    return oracle.truncated_coherent(alpha, cutoff).tail_mass


class TestPoissonTail:
    """The recorded tail, one fsum over the walk, checked against SciPy and decimal sums.

    Each reference is formed at mu = |alpha|^2 for alpha = sqrt(mu), the
    mean the oracle sees."""

    @pytest.mark.parametrize("mu", [1e-12, 1e-6, 0.1, 1.0, 4.0, 16.0, 100.0,
                                    700.0, 1000.0, 1400.0])
    def test_matches_scipy_sf(self, mu):
        from scipy import stats
        alpha = math.sqrt(mu)
        mu = abs(alpha) ** 2
        c = max(int(mu) - 5, 0)
        checked = 0
        while True:
            ref = float(stats.poisson.sf(c, mu))
            if ref < 1e-290:
                break
            assert recorded_tail(c, alpha) == pytest.approx(ref, rel=1e-10, abs=0.0)
            c += 1
            checked += 1
        assert checked >= 5

    @pytest.mark.parametrize("mu", [4.0, 100.0, 1400.0, 1e4])
    def test_matches_decimal_sum(self, mu):
        alpha = math.sqrt(mu)
        tails = decimal_tails(abs(alpha) ** 2)  # tails[c + 1] = P(X > c)
        last = next(c for c in range(len(tails)) if tails[c + 1] < Decimal("1e-300"))
        cutoffs = sorted({int(c) for c in np.linspace(0, last - 1, 120)})
        worst = max(abs(Decimal(recorded_tail(c, alpha)) - tails[c + 1]) / tails[c + 1]
                    for c in cutoffs)
        assert worst <= Decimal("1e-13"), (mu, worst)

    def test_cutoff_far_below_mean(self):
        # exp(-mu) mu^(cutoff+1) / (cutoff+1)! underflows here; the tail is ~1
        assert recorded_tail(10, 30.0) == pytest.approx(1.0, rel=1e-10)
        for mu in (100.0, 1e4, 9e4):
            assert abs(recorded_tail(0, math.sqrt(mu)) - 1.0) <= 2.0 ** -52, mu

    def test_zero_mean(self):
        assert recorded_tail(0, 0.0) == 0.0
        assert oracle.minimal_cutoff(0.0, 1e-14) == 0

    def test_minimal_cutoff_matches_sf_loop(self):
        from scipy import stats
        for mu in np.geomspace(0.01, 1000.0, 60):
            mu = float(mu)
            # P(X > c) for every c from 0; the reference is the first below tol
            sf = stats.poisson.sf(np.arange(2 * int(mu) + 60), mu)
            assert sf[-1] < 1e-15
            for tol in (0.9, 0.5, 0.3, 1e-8, 1e-9, 1e-10, 1e-11, 1e-12, 1e-13, 1e-14, 1e-15):
                c = int(np.argmax(sf < tol))
                assert oracle.minimal_cutoff(mu, tol) == c, (mu, tol)

    def test_minimal_cutoff_errors(self):
        for tol in (0.0, -1e-12, 1.0, 2.0, math.inf, math.nan):
            with pytest.raises(ValueError, match=r"^tail_tol must be < 1 and > 0, got "):
                oracle.minimal_cutoff(4.0, tol)
        with pytest.raises(CutoffError):
            oracle.minimal_cutoff(99_990.0, 1e-14)
        with pytest.raises(CutoffError):
            oracle.minimal_cutoff(2e5, 1e-14)
        # beyond the reach every Poisson quantity refuses before it walks
        with pytest.raises(CutoffError, match="reach"):
            oracle.truncated_coherent(1e5, 5)
        with pytest.raises(CutoffError, match="reach"):
            oracle.truncated_coherent(math.sqrt(2e5), 10)
        for mu in (-1.0, math.nan, math.inf):
            message = f"^alpha_sq must be finite and >= 0, got {re.escape(str(mu))}$"
            with pytest.raises(DegenerateInputError, match=message):
                oracle.minimal_cutoff(mu, 1e-14)
            if not mu < 0.0:  # |alpha|^2 is never negative
                with pytest.raises(DegenerateInputError, match=message):
                    oracle.truncated_coherent(mu, 5)

    @pytest.mark.parametrize("tol", [2.0, 1.0, math.nan, 0.0, -1.0])
    def test_every_tail_tol_reader_refuses_one_outside_its_row(self, tol):
        # a tail_tol outside (0, 1) is refused before any walk, with or
        # without a cutoff, by the one domain row
        message = f"^tail_tol must be < 1 and > 0, got {re.escape(repr(tol))}$"
        p = states.ecs_params(2, 1.0, 0.3)
        for call in (lambda: oracle.minimal_cutoff(2.0, tol),
                     lambda: oracle.truncated_coherent(2.0, 3, tail_tol=tol),
                     lambda: oracle.build_state(p, 12, tail_tol=tol),
                     lambda: oracle.build_state(p, tail_tol=tol),
                     lambda: oracle.build_state(states.noon_params(2, 3), tail_tol=tol)):
            with pytest.raises(ValueError, match=message):
                call()


class TestBuildStates:
    def test_single_branch_norm(self):
        p = states.EcsParams(d=1, alpha_sq=2.0, b=0.0, c=1.0, m=1)
        state = oracle.build_state(p, 30)
        assert oracle.norm_sq(state) == pytest.approx(1.0, abs=1e-12)

    def test_solved_c_normalizes(self):
        p = states.ecs_params(2, 1.0, 0.4)
        state = oracle.build_state(p, oracle.minimal_cutoff(1.0, 1e-13) + 2)
        assert oracle.norm_sq(state) == pytest.approx(1.0, abs=1e-10)

    def test_branch_overlap_structure(self):
        # <branch_j | branch_k> = e^{-alpha_sq} for j != k
        p = states.ecs_params(3, 1.5, 0.2)
        state = oracle.build_state(p, 25)
        _, f1 = state.terms[0]
        _, f2 = state.terms[1]
        overlap = 1.0 + 0j
        for v1, v2 in zip(f1, f2):
            overlap *= np.vdot(v1.amplitudes, v2.amplitudes)
        assert overlap == pytest.approx(math.exp(-1.5), rel=1e-12)

    def test_noon_orthonormal_branches(self):
        p = states.noon_params(2, 3)
        state = oracle.build_state(p, 3)
        assert oracle.norm_sq(state) == pytest.approx(1.0, abs=1e-14)
        for (c1, f1), (c2, f2) in [(state.terms[0], state.terms[1]),
                                   (state.terms[0], state.terms[2])]:
            overlap = 1.0 + 0j
            for v1, v2 in zip(f1, f2):
                overlap *= np.vdot(v1.amplitudes, v2.amplitudes)
            assert overlap == 0.0

    def test_noon_cutoff_error(self):
        with pytest.raises(CutoffError):
            oracle.build_state(states.noon_params(2, 5), 4)

    @pytest.mark.parametrize("alpha_sq,m", [(0.25, 1), (4.0, 2), (100.0, 1), (1000.0, 2)])
    def test_chosen_cutoff_holds_the_tail(self, alpha_sq, m):
        state = oracle.build_state(states.ecs_params(2, alpha_sq, 0.2, m=m))
        tol = oracle.DEFAULT_TAIL_TOL
        assert state.cutoff() == oracle.minimal_cutoff(alpha_sq, tol) + 2 * m
        excited = state.terms[0][1][1]
        assert 0.0 < excited.tail_mass < tol

    def test_chosen_noon_cutoff_is_the_photon_number(self):
        for n in (1, 4, 9):
            assert oracle.build_state(states.noon_params(3, n, m=2)).cutoff() == n

    def test_given_cutoff_records_its_tail_without_enforcing_it(self):
        alpha_sq, tol = 4.0, 1e-6
        cutoff = oracle.minimal_cutoff(alpha_sq, tol) - 1
        state = oracle.build_state(states.ecs_params(2, alpha_sq, 0.3), cutoff, tol)
        assert state.cutoff() == cutoff
        tail = state.terms[0][1][1].tail_mass
        assert tail >= tol
        assert tail == oracle.truncated_coherent(math.sqrt(alpha_sq), cutoff).tail_mass
        assert tail == pytest.approx(float(decimal_tails(alpha_sq)[cutoff + 1]), rel=1e-13)


@pytest.mark.parametrize("call,cutoff,error", [
    (lambda c: oracle.truncated_coherent(2.0, c), 5.5, TypeError),
    (lambda c: oracle.truncated_coherent(2.0, c), True, TypeError),
    (lambda c: oracle.truncated_coherent(2.0, c), -1, CutoffError),
    (lambda c: oracle.build_state(states.noon_params(2, 3), c), 5.5, TypeError),
    (lambda c: oracle.build_state(states.noon_params(2, 3), c), -1, CutoffError),
    (lambda c: oracle.dense_qfim(states.ecs_params(2, 1.0, 0.3), c), math.nan, TypeError),
], ids=["coherent-float", "coherent-bool", "coherent-negative", "noon-float", "noon-negative",
        "dense-nan"])
def test_cutoff_is_an_int_at_least_0(call, cutoff, error):
    """Every cutoff the oracle is given is judged by the domain's one cutoff row."""
    with pytest.raises(error) as info:
        call(cutoff)
    assert type(info.value) is error
    assert str(info.value) == f"cutoff must be an int >= 0, got {cutoff!r}"


class TestOperators:
    def test_number_power_kills_vacuum(self):
        state = oracle.build_state(states.EcsParams(1, 1.0, 0.0, 1.0, 1), 15)
        hit = oracle._apply_number_power(state, 1, 2)  # mode 1 holds vacuum here
        assert oracle.norm_sq(hit) == 0.0

    def test_generator_first_moment(self):
        # <H_j> = b^2 f(m, alpha)
        p = states.ecs_params(2, 1.0, 0.4, m=2)
        state = oracle.build_state(p, oracle.minimal_cutoff(1.0, 1e-14) + 4)
        value = oracle.inner_product(state, oracle._apply_number_power(state, 1, 2)).real
        assert value == pytest.approx(0.16 * coherent_number_moment(2, 1.0), rel=1e-12)

    def test_generator_second_moment_diagonal(self):
        # <H_j H_k> = b^2 f(2m, alpha) delta_jk
        p = states.ecs_params(3, 2.0, 0.3, m=1)
        state = oracle.build_state(p, oracle.minimal_cutoff(2.0, 1e-14) + 2)
        h1 = oracle._apply_number_power(state, 1, 1)
        h2 = oracle._apply_number_power(state, 2, 1)
        same = oracle.inner_product(h1, h1).real
        cross = oracle.inner_product(h1, h2)
        assert same == pytest.approx(0.09 * coherent_number_moment(2, 2.0), rel=1e-12)
        assert cross == 0.0


class TestNumericalQfim:
    def test_single_mode_value(self):
        p = states.ecs_params(1, 1.0, 0.5)
        assert oracle.numerical_qfim(p) == pytest.approx(np.array([[1.75]]), rel=1e-10)

    def test_exactly_symmetric(self):
        p = states.ecs_params(4, 4.0, 0.2, m=2)
        f = oracle.numerical_qfim(p)
        assert np.array_equal(f, f.T)

    def test_noon_structure(self):
        # F = 4 b^2 N^{2m} (I - b^2 J)
        p = states.noon_params(2, 3, b=0.5, m=1)
        f = oracle.numerical_qfim(p)
        expected = 4.0 * 0.25 * 9.0 * (np.eye(2) - 0.25 * np.ones((2, 2)))
        assert f == pytest.approx(expected, rel=1e-13)

    def test_matches_analytic(self):
        p = states.ecs_params(3, 4.0, 0.35, m=2)
        assert rel_frobenius(oracle.numerical_qfim(p),
                             qfim.to_dense(qfim.ecs_qfim(p))) < 1e-8

    @pytest.mark.parametrize("alpha_sq", [1400.0, 1e4])
    def test_matches_analytic_where_exp_underflows(self, alpha_sq):
        p = states.ecs_params(2, alpha_sq, 0.15)
        assert rel_frobenius(oracle.numerical_qfim(p),
                             qfim.to_dense(qfim.ecs_qfim(p))) < 1e-13


class TestDerivativePath:
    @pytest.mark.parametrize("alpha_sq", [100.0, 1000.0])
    def test_matches_analytic_at_large_amplitude(self, alpha_sq):
        # a large alpha_sq puts the probe's weight on levels with large n^m,
        # far above those of the verify grid
        p = states.ecs_params(3, alpha_sq, 0.3, m=2)
        assert rel_frobenius(oracle.qfim_via_state_derivatives(p),
                             qfim.to_dense(qfim.ecs_qfim(p))) < 1e-8

    def test_agrees_with_moment_path(self):
        # d_j psi = i H_j psi, and the factors i and -i cancel exactly: one body, two names
        assert oracle.qfim_via_state_derivatives is oracle.numerical_qfim


class TestCommutators:
    @pytest.mark.parametrize("d,m", [(2, 1), (3, 2)])
    def test_all_pairs_vanish(self, d, m):
        p = states.ecs_params(d, 1.0, 0.3, m=m)
        for j in range(1, d + 1):
            for k in range(1, d + 1):
                assert abs(oracle.commutator_expectation(p, j, k)) <= 1e-14

    def test_self_commutator_is_exactly_zero(self):
        p = states.ecs_params(2, 2.0, 0.4)
        assert oracle.commutator_expectation(p, 1, 1) == 0.0


def _weight(d, m, alpha_sq, frac=0.9):
    geom = states.domain_geometry(d, m, alpha_sq)
    return frac * min(geom.b_star, math.sqrt(geom.gamma_cap))


def _loop_inner_product(s1, s2):
    """The term-pair x mode vdot loop the factor tables replaced."""
    total = 0j
    for c1, f1 in s1.terms:
        for c2, f2 in s2.terms:
            ov = np.conj(c1) * c2
            for v1, v2 in zip(f1, f2):
                ov *= np.vdot(v1.amplitudes, v2.amplitudes)
            total += ov
    return total


class TestFactorTables:
    """The per-mode factor tables against the direct term-pair loop."""

    def _states(self):
        ecs = oracle.build_state(states.ecs_params(3, 1.5, 0.3, m=2), 18)
        noon = oracle.build_state(states.noon_params(3, 4), 6)
        # e^{i n^2 theta_j} on sensing mode j: complex vectors that differ by mode
        phases = [np.exp(1j * np.arange(19.0) ** 2 * t) for t in (0.3, -1.1, 2.0)]
        evolved = oracle.SparseProductState(ecs.num_modes, tuple(
            (c, f[:1] + tuple(oracle.ModeVector(v.amplitudes * z) for v, z in zip(f[1:], phases)))
            for c, f in ecs.terms))
        mixed = oracle.SparseProductState(ecs.num_modes, tuple(
            (w * c, f) for w, s in ((0.5, ecs), (0.25j, evolved)) for c, f in s.terms))
        return ecs, noon, evolved, mixed

    def test_inner_products_match_loop(self):
        ecs, noon, evolved, mixed = self._states()
        hit = oracle._apply_number_power(oracle._apply_number_power(ecs, 1, 2), 3, 1)
        for s1, s2 in [(ecs, ecs), (ecs, evolved), (evolved, mixed), (mixed, hit),
                       (hit, hit), (noon, noon),
                       (noon, oracle._apply_number_power(noon, 2, 1))]:
            ref = _loop_inner_product(s1, s2)
            assert abs(oracle.inner_product(s1, s2) - ref) <= 1e-14 * max(1.0, abs(ref))

    def test_tables_match_loop_on_a_generic_state(self, rng):
        # Probe states never hold photons in two sensing modes of one term, so
        # their pair overlaps vanish; a generic state exercises the
        # leave-two-out products too.
        num_modes, levels = 6, 5

        def vec():
            return oracle.ModeVector(rng.normal(size=levels) + 1j * rng.normal(size=levels))
        pools = [[vec() for _ in range(3)] for _ in range(num_modes)]

        def generic(count):
            return oracle.SparseProductState(num_modes=num_modes, terms=tuple(
                (complex(rng.normal(), rng.normal()),
                 tuple(pools[k][rng.integers(3)] for k in range(num_modes)))
                for _ in range(count)))
        bra, ket = generic(4), generic(5)
        weights = rng.normal(size=(2, levels))
        coeffs, tables = oracle._overlap_tables(bra, ket, *weights)
        for s, (cs, fs) in enumerate(bra.terms):
            for t, (ct, ft) in enumerate(ket.terms):
                assert coeffs[s, t] == pytest.approx(np.conj(cs) * ct, rel=1e-15)
                for table, w in zip(tables, (np.ones(levels), *weights)):
                    ref = np.array([np.vdot(u.amplitudes, w * v.amplitudes)
                                    for u, v in zip(fs, ft)])
                    assert np.all(abs(table[:, s, t] - ref) <= 1e-15 * abs(ref).max())
        # normalized, so that the pair moments are not swamped by the product of the means
        scale = abs(_loop_inner_product(ket, ket)) ** -0.5
        ket = oracle.SparseProductState(num_modes, tuple((scale * c, f) for c, f in ket.terms))
        for m in (1, 2):
            self._assert_moments_match_loop(ket, m, 1e-13)

    @pytest.mark.parametrize("p,cutoff", [
        (states.ecs_params(3, 2.0, 0.3, m=1), 20),
        (states.ecs_params(4, 0.5, 0.2, m=2), 14),
        (states.noon_params(3, 5, m=2), 5),
        (states.noon_params(4, 3, b=0.4, m=1), 7),
    ], ids=["ecs-m1", "ecs-m2", "noon-m2", "noon-m1"])
    def test_moments_match_loop_on_probes(self, p, cutoff):
        self._assert_moments_match_loop(oracle.build_state(p, cutoff), p.m, 1e-14)

    @staticmethod
    def _assert_moments_match_loop(state, m, tol):
        """_qfim and total_photon_expectation against the term-pair loop, real weights n^m."""
        sensing = range(1, state.num_modes)
        h = [oracle._apply_number_power(state, j, m) for j in sensing]
        means = np.array([_loop_inner_product(state, hj) for hj in h])
        second = np.array([[_loop_inner_product(hj, hk) for hk in h] for hj in h])
        ref = 4.0 * (second - np.outer(np.conj(means), means)).real
        assert rel_frobenius(oracle._qfim(state, m), ref) < tol
        counts = [oracle._apply_number_power(state, j, 1) for j in range(state.num_modes)]
        photons = sum(_loop_inner_product(state, nj) for nj in counts).real
        norm = _loop_inner_product(state, state).real
        assert oracle.total_photon_expectation(state) == pytest.approx(photons / norm, rel=tol)

    def test_noon_cross_overlaps_are_exactly_zero(self):
        # no division in the leave-one-out products: zero overlaps stay zero
        p = states.noon_params(4, 3)
        f = oracle.numerical_qfim(p)
        assert np.all(np.isfinite(f))
        h1 = oracle._apply_number_power(oracle.build_state(p, 3), 1, 1)
        h2 = oracle._apply_number_power(oracle.build_state(p, 3), 2, 1)
        assert oracle.inner_product(h1, h2) == 0.0

    def test_qfim_matches_loop_reference(self):
        for p in (states.ecs_params(3, 2.0, 0.3, m=1), states.ecs_params(4, 0.5, 0.2, m=2),
                  states.noon_params(3, 5, m=2)):
            cutoff = (p.photon_number if isinstance(p, states.NoonParams)
                      else oracle.minimal_cutoff(p.alpha_sq, 1e-14) + 2 * p.m)
            state = oracle.build_state(p, cutoff)
            h = [oracle._apply_number_power(state, j, p.m) for j in range(1, p.d + 1)]
            means = np.array([_loop_inner_product(state, hj).real for hj in h])
            second = np.array([[_loop_inner_product(hj, hk).real for hk in h] for hj in h])
            ref = 4.0 * (second - np.outer(means, means))
            assert rel_frobenius(oracle._qfim(state, p.m), ref) < 1e-14

    def test_operators_map_each_distinct_vector_once(self):
        state = oracle.build_state(states.ecs_params(5, 1.0, 0.2, m=1), 16)
        hit = oracle._apply_number_power(state, 2, 2)
        assert len({id(f[2]) for _, f in hit.terms}) == 2

    def test_mismatched_states_rejected(self):
        a = oracle.build_state(states.ecs_params(2, 1.0, 0.3), 10)
        with pytest.raises(ValueError, match="cutoff mismatch"):
            oracle.inner_product(a, oracle.build_state(states.ecs_params(2, 1.0, 0.3), 11))
        with pytest.raises(ValueError, match="mode count mismatch"):
            oracle.inner_product(a, oracle.build_state(states.ecs_params(3, 1.0, 0.3), 10))


class TestWideProbes:
    """The oracle against the closed forms where the simultaneous advantage grows."""

    @pytest.mark.parametrize("d", [16, 32, 64])
    @pytest.mark.parametrize("m", [1, 2])
    def test_ecs_matches_analytic(self, d, m):
        p = states.ecs_params(d, 1.0, _weight(d, m, 1.0), m)
        analytic = qfim.to_dense(qfim.ecs_qfim(p))
        tol = verify.DEFAULT_TOLERANCES
        assert rel_frobenius(oracle.numerical_qfim(p), analytic) < tol["qfim.oracle_vs_analytic"]
        for j, k in [(1, d), (d, 1), (d // 2, d // 2 + 1)]:
            assert abs(oracle.commutator_expectation(p, j, k)) <= tol["qfim.commutators"]

    def test_noon_matches_analytic(self):
        p = states.noon_params(16, 5, m=2)
        analytic = qfim.to_dense(qfim.noon_qfim(p))
        tol = verify.DEFAULT_TOLERANCES
        assert rel_frobenius(oracle.numerical_qfim(p), analytic) < tol["qfim.oracle_vs_analytic"]
        assert abs(oracle.commutator_expectation(p, 1, 16)) <= tol["qfim.commutators"]

    def test_verify_suite_covers_wide_probes(self):
        assert sorted({p.d for p in verify.wide_params()}) == [8, 16, 32, 64]
        assert {p.m for p in verify.wide_params()} == {1, 2}


class TestValidation:
    """A probe is validated when it is built; oracle calls never validate it again."""

    @pytest.mark.parametrize("call", [
        lambda p: oracle.numerical_qfim(p),
        lambda p: oracle.commutator_expectation(p, 1, 2),
        lambda p: oracle._qfim(oracle.build_state(p, 12), p.m),
        lambda p: oracle.dense_qfim(p, 8),
    ])
    @pytest.mark.parametrize("p", [states.ecs_params(2, 1.0, 0.3, m=2),
                                   states.noon_params(2, 3)], ids=["ecs", "noon"])
    def test_one_validation_per_call(self, monkeypatch, call, p):
        # the one validation happened at construction, above; a call constructs
        # (and so validates) no probe
        calls = []
        for cls in (states.EcsParams, states.NoonParams):
            original = cls.__init__

            def counted(q, *args, original=original, **kwargs):
                calls.append(q)
                return original(q, *args, **kwargs)
            monkeypatch.setattr(cls, "__init__", counted)
        call(p)
        assert calls == []


def _outer_reference_tensor(p, cutoff):
    state = oracle.build_state(p, cutoff)
    out = np.zeros((cutoff + 1,) * state.num_modes, dtype=complex)
    for coeff, factors in state.terms:
        out += coeff * reduce(np.multiply.outer, [f.amplitudes for f in factors])
    return out


def _dense_tensor(p, cutoff):
    return np.array(list(oracle._dense_slabs(p, cutoff)))


def _weighted_copy_reference_qfim(p, cutoff):
    tensor = _outer_reference_tensor(p, cutoff)
    levels = np.arange(cutoff + 1, dtype=float) ** p.m
    weighted = []
    for j in range(1, p.d + 1):
        shape = [1] * tensor.ndim
        shape[j] = cutoff + 1
        weighted.append(tensor * levels.reshape(shape))
    means = np.array([np.vdot(tensor, w).real for w in weighted])
    second = np.array([[np.vdot(wj, wk).real for wk in weighted] for wj in weighted])
    return 4.0 * (second - np.outer(means, means))


class TestDenseTensor:
    def test_norm_matches_sparse(self):
        p = states.ecs_params(1, 1.0, 0.4)
        tensor = _dense_tensor(p, 8)
        sparse = oracle.build_state(p, 8)
        assert abs(np.vdot(tensor, tensor).real - oracle.norm_sq(sparse)) < 1e-12

    def test_qfim_matches_sparse(self):
        p = states.ecs_params(2, 1.0, 0.3, m=1)
        dense = oracle.dense_qfim(p, 10)
        sparse = oracle._qfim(oracle.build_state(p, 10), p.m)
        assert rel_frobenius(dense, sparse) < 1e-10

    def test_size_limit(self):
        p = states.ecs_params(5, 1.0, 0.2)
        with pytest.raises(SizeLimitError):
            oracle._dense_slabs(p, 12)

    def test_dense_qfim_size_limit_comes_first(self):
        # 2^61 amplitudes: the check must fire before any levels^d array is made
        p = states.ecs_params(60, 1.0, _weight(60, 1, 1.0), 1)
        with pytest.raises(SizeLimitError):
            oracle.dense_qfim(p, 1)

    @pytest.mark.parametrize("p,cutoff", [
        (states.ecs_params(2, 1.5, _weight(2, 1, 1.5), 1), 12),
        (states.ecs_params(3, 2.0, _weight(3, 2, 2.0), 2), 9),
        (states.noon_params(3, 4, m=2), 5),
        # awkward shapes under the size limit: 61 modes of one level, 2^20 amplitudes
        (states.ecs_params(60, 1.0, _weight(60, 1, 1.0), 1), 0),
        (states.ecs_params(19, 0.5, _weight(19, 1, 0.5), 1), 1),
    ], ids=["ecs-m1", "ecs-m2", "noon", "d60-cutoff0", "d19-cutoff1"])
    def test_tensor_equals_outer_product_reference(self, p, cutoff):
        tensor = _dense_tensor(p, cutoff)
        assert np.array_equal(tensor, _outer_reference_tensor(p, cutoff))

    @pytest.mark.parametrize("p,cutoff", [
        (states.ecs_params(2, 4.0, _weight(2, 2, 4.0), 2), 40),
        (states.ecs_params(3, 1.0, 0.2, 1), 14),
        (states.noon_params(3, 4, b=0.4, m=1), 6),
        (states.ecs_params(1, 0.25, 0.5, 2), 20),
    ])
    def test_qfim_equals_weighted_copy_reference(self, p, cutoff):
        ref = _weighted_copy_reference_qfim(p, cutoff)
        assert rel_frobenius(oracle.dense_qfim(p, cutoff), ref) < 1e-13

    @pytest.mark.parametrize("p,cutoff", [
        # one slab of one amplitude; the matrix is exactly zero, so the
        # tolerance scales with the reference's norm instead of dividing by it
        (states.ecs_params(60, 1.0, _weight(60, 1, 1.0), 1), 0),
        (states.ecs_params(9, 0.5, _weight(9, 1, 0.5), 2), 1),
    ], ids=["d60-cutoff0", "d9-cutoff1"])
    def test_qfim_equals_weighted_copy_reference_at_awkward_shapes(self, p, cutoff):
        ref = _weighted_copy_reference_qfim(p, cutoff)
        dense = oracle.dense_qfim(p, cutoff)
        assert np.linalg.norm(dense - ref) <= 1e-13 * np.linalg.norm(ref)

    def test_dense_qfim_makes_no_full_size_copy(self):
        p = states.ecs_params(2, 4.0, _weight(2, 2, 4.0), 2)
        nbytes = 100 ** 3 * np.dtype(complex).itemsize
        tracemalloc.start()
        try:
            oracle.dense_qfim(p, 99)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= nbytes + 2 ** 20, peak

    def test_dense_qfim_holds_one_slab(self):
        # the 16 MB tensor of this probe is never held: one 160 kB slab at a
        # time, the 80 kB marginal and the 480 kB Kronecker rows of modes 1, 2
        p = states.ecs_params(2, 4.0, _weight(2, 2, 4.0), 2)
        tracemalloc.start()
        try:
            oracle.dense_qfim(p, 99)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2_000_000, peak


def test_linear_combination():
    p = states.ecs_params(2, 1.0, 0.3)
    state = oracle.build_state(p, 15)
    doubled = oracle.SparseProductState(state.num_modes, state.terms + state.terms)
    assert oracle.norm_sq(doubled) == pytest.approx(4.0 * oracle.norm_sq(state), rel=1e-13)


def _run_oracle_worker(tmp_path, trace):
    """Run the benchmark's oracle worker (seed 5, 1 s) against this package; its JSON."""
    out = tmp_path / "oracle.json"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(["src", "perfbench"]),
               PYTHONDONTWRITEBYTECODE="1")
    result = subprocess.run([sys.executable, "perfbench/oracle_worker.py", "5", "1", trace, str(out)],
                            cwd=Path(__file__).resolve().parent.parent, env=env,
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    return json.loads(out.read_text())


def test_benchmark_oracle_worker_checks_every_op_kind_cleanly(tmp_path):
    """The benchmark's oracle worker runs against this package: every oracle
    name and keyword it calls exists, and every op it checks passes."""
    records = _run_oracle_worker(tmp_path, "0")["records"]
    assert {"ecs", "noon", "dense"} <= {r["kind"] for r in records}
    assert [r for r in records if r["errors"]] == []


def test_benchmark_output_checks_pass_on_oneshot_and_sweep_ops(capsys, tmp_path):
    """The benchmark's own checks pass on the CLI's output: two cycles of its
    one-shot bounds ops, and its first region and first curves op."""
    for op in islice(mix.oneshot_ops(1), 2 * len(mix.ONESHOT_CYCLE)):
        code = cli.main(mix.bounds_argv(op))
        out = capsys.readouterr().out.encode()
        assert code == 0, op
        assert refs.check_bound(op, run.parse_bound_output(op["format"], out)) == [], op
    sweeps = list(islice(mix.sweep_ops(1), len(mix.SWEEP_CYCLE)))
    for kind in ("region", "curves"):
        op = next(op for op in sweeps if op["kind"] == kind)
        path = str(tmp_path / kind)
        assert cli.main(mix.sweep_argv(op, path)) == 0
        assert run.check_sweep_output(op, path) == ([], op["rows"])


def _package_references(path: Path) -> set[str]:
    """Dotted package names a benchmark file reads, from its source alone: each name
    bound by ``from phasebounds import ...`` or ``import phasebounds....``, and each
    attribute chain read off one of them."""
    tree = ast.parse(path.read_text(), str(path))
    bound = {}  # local name -> the dotted name it stands for
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 0 and (
                node.module or "").split(".")[0] == "phasebounds":
            bound.update((a.asname or a.name, f"{node.module}.{a.name}") for a in node.names)
        elif isinstance(node, ast.Import):
            bound.update((a.asname or a.name.split(".")[0], a.asname and a.name or "phasebounds")
                         for a in node.names if a.name.split(".")[0] == "phasebounds")
    refs = set(bound.values())
    for node in ast.walk(tree):
        chain = []
        while isinstance(node, ast.Attribute):
            chain.append(node.attr)
            node = node.value
        if chain and isinstance(node, ast.Name) and node.id in bound:
            refs.add(".".join([bound[node.id], *reversed(chain)]))
    return refs


def _resolves(dotted: str) -> bool:
    """Whether the dotted name is a module of the package or an attribute of one."""
    try:
        pkgutil.resolve_name(dotted)
    except (ImportError, AttributeError):
        return False
    return True


def test_every_package_name_the_benchmark_reads_resolves():
    """Each ``module.name`` a benchmark file reads off the package exists, so a
    deletion of a name the benchmark calls fails here; the files are parsed, not
    imported.  Names the tracer builds from strings are outside this check."""
    names = {ref for path in sorted(PERFBENCH.glob("*.py")) for ref in _package_references(path)}
    assert "phasebounds.oracle.dense_qfim" in names and "phasebounds.cli.main" in names
    assert sorted(ref for ref in names if not _resolves(ref)) == []


def _traced_names() -> set[tuple[str, str]]:
    """(layer, function) pairs the benchmark builds from strings, from its source
    alone: each ``functions.get("layer.name")`` key of run.py and each
    ``layer == "..." and name == "..."`` hook test of tracer.py."""
    names = set()
    for node in ast.walk(ast.parse((PERFBENCH / "run.py").read_text())):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr == "get" and isinstance(node.func.value, ast.Name)
                and node.func.value.id == "functions"):
            names.add(tuple(node.args[0].value.split(".")))
    for node in ast.walk(ast.parse((PERFBENCH / "tracer.py").read_text())):
        if isinstance(node, ast.BoolOp) and isinstance(node.op, ast.And):
            tests = {c.left.id: c.comparators[0].value for c in node.values
                     if isinstance(c, ast.Compare) and isinstance(c.left, ast.Name)}
            if {"layer", "name"} <= tests.keys():
                names.add((tests["layer"], tests["name"]))
    return names


def test_every_function_the_benchmark_names_in_a_string_is_traced():
    """Each layer function the benchmark's run.py reads by key, or its tracer hooks
    by name, is a plain function in that module's ``__all__``, the only functions
    the tracer wraps; a deletion or rename there would otherwise only zero an
    ungated per-layer metric.  perfbench/test_perfbench.py is left out: its
    ``bounds.region_classify`` key names a function deleted on purpose, a known
    failure of the benchmark's own tests."""
    def traced(layer: str, name: str) -> bool:
        module = importlib.import_module(f"phasebounds.{layer}")
        return name in module.__all__ and isinstance(getattr(module, name), types.FunctionType)

    names = _traced_names()
    assert {("oracle", "inner_product"), ("oracle", "truncated_coherent"),
            ("oracle", "dense_qfim"), ("oracle", "minimal_cutoff")} <= names
    assert sorted(n for n in names if not traced(*n)) == []


def test_benchmark_tracer_counts_the_oracle_truncation_and_term_pairs(tmp_path):
    """With TRACE=1 the benchmark's tracer hooks on truncated_coherent (called
    with its tail tolerance) and inner_product (called on two states) still
    fire, so its cutoff, tail-mass and term-pair counters are filled."""
    counters = _run_oracle_worker(tmp_path, "1")["trace"]["counters"]
    for name in ("oracle.cutoff_max", "oracle.tail_mass_max", "oracle.term_pairs"):
        assert counters[name] > 0, (name, counters)
