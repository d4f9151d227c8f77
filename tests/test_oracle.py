import math

import numpy as np
import pytest

from phasebounds import oracle, qfim, states
from phasebounds.errors import CutoffError, SizeLimitError
from phasebounds.moments import coherent_number_moment

from conftest import rel_frobenius


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
        alpha = 1.3
        mode = oracle.truncated_coherent(alpha, 12)
        for n in (0, 3, 7):
            expected = math.exp(-alpha ** 2 / 2) * alpha ** n / math.sqrt(math.factorial(n))
            assert mode.amplitudes[n] == pytest.approx(expected, rel=1e-13)

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
        assert oracle.poisson_tail(c, 4.0) < 1e-12
        assert oracle.poisson_tail(c - 1, 4.0) >= 1e-12


class TestPoissonTail:
    """Direct tail summation checked against SciPy's survival function."""

    @pytest.mark.parametrize("mu", [1e-12, 1e-6, 0.1, 1.0, 4.0, 16.0, 100.0,
                                    700.0, 1000.0, 1400.0])
    def test_matches_scipy_sf(self, mu):
        from scipy import stats
        c = int(mu) - 5
        checked = 0
        while True:
            ref = float(stats.poisson.sf(c, mu))
            if ref < 1e-290:
                break
            assert oracle.poisson_tail(c, mu) == pytest.approx(ref, rel=1e-10, abs=0.0)
            c += 1
            checked += 1
        assert checked >= 5

    def test_cutoff_far_below_mean(self):
        # exp(-mu) mu^(cutoff+1) / (cutoff+1)! underflows here; the tail is ~1
        assert oracle.poisson_tail(10, 900.0) == pytest.approx(1.0, rel=1e-10)
        assert oracle.poisson_tail(-1, 3.0) == pytest.approx(1.0, rel=1e-15)

    def test_zero_mean(self):
        assert oracle.poisson_tail(0, 0.0) == 0.0
        assert oracle.minimal_cutoff(0.0, 1e-14) == 0

    def test_minimal_cutoff_matches_sf_loop(self):
        from scipy import stats
        for mu in np.geomspace(0.01, 1000.0, 60):
            mu = float(mu)
            for tol in (1e-8, 1e-9, 1e-10, 1e-11, 1e-12, 1e-13, 1e-14, 1e-15):
                c = max(int(mu), 0)
                while stats.poisson.sf(c, mu) >= tol:
                    c += 1
                assert oracle.minimal_cutoff(mu, tol) == c, (mu, tol)

    def test_minimal_cutoff_errors(self):
        with pytest.raises(ValueError):
            oracle.minimal_cutoff(4.0, 0.0)
        with pytest.raises(ValueError):
            oracle.minimal_cutoff(4.0, -1e-12)
        with pytest.raises(CutoffError):
            oracle.minimal_cutoff(99_990.0, 1e-14)
        with pytest.raises(CutoffError):
            oracle.minimal_cutoff(2e5, 1e-14)


class TestBuildStates:
    def test_single_branch_norm(self):
        p = states.EcsParams(d=1, alpha_sq=2.0, b=0.0, c=1.0, m=1)
        state = oracle.build_ecs_state(p, 30)
        assert oracle.norm_sq(state) == pytest.approx(1.0, abs=1e-12)

    def test_solved_c_normalizes(self):
        p = states.ecs_params(2, 1.0, 0.4)
        state = oracle.build_ecs_state(p, oracle.minimal_cutoff(1.0, 1e-13) + 2)
        assert oracle.norm_sq(state) == pytest.approx(1.0, abs=1e-10)

    def test_branch_overlap_structure(self):
        # <branch_j | branch_k> = e^{-alpha_sq} for j != k
        p = states.ecs_params(3, 1.5, 0.2)
        state = oracle.build_ecs_state(p, 25)
        _, f1 = state.terms[0]
        _, f2 = state.terms[1]
        overlap = 1.0 + 0j
        for v1, v2 in zip(f1, f2):
            overlap *= np.vdot(v1.amplitudes, v2.amplitudes)
        assert overlap == pytest.approx(math.exp(-1.5), rel=1e-12)

    def test_noon_orthonormal_branches(self):
        p = states.noon_params(2, 3)
        state = oracle.build_noon_state(p, 3)
        assert oracle.norm_sq(state) == pytest.approx(1.0, abs=1e-14)
        for (c1, f1), (c2, f2) in [(state.terms[0], state.terms[1]),
                                   (state.terms[0], state.terms[2])]:
            overlap = 1.0 + 0j
            for v1, v2 in zip(f1, f2):
                overlap *= np.vdot(v1.amplitudes, v2.amplitudes)
            assert overlap == 0.0

    def test_noon_cutoff_error(self):
        with pytest.raises(CutoffError):
            oracle.build_noon_state(states.noon_params(2, 5), 4)


class TestOperators:
    def test_number_power_zero_is_identity(self):
        p = states.ecs_params(2, 1.0, 0.3)
        state = oracle.build_ecs_state(p, 20)
        assert oracle.apply_number_power(state, 1, 0) is state

    def test_number_power_kills_vacuum(self):
        state = oracle.build_ecs_state(states.EcsParams(1, 1.0, 0.0, 1.0, 1), 15)
        hit = oracle.apply_number_power(state, 1, 2)  # mode 1 holds vacuum here
        assert oracle.norm_sq(hit) == 0.0

    def test_generator_first_moment(self):
        # <H_j> = b^2 f(m, alpha)
        p = states.ecs_params(2, 1.0, 0.4, m=2)
        state = oracle.build_ecs_state(p, oracle.minimal_cutoff(1.0, 1e-14) + 4)
        value = oracle.inner_product(state, oracle.apply_number_power(state, 1, 2)).real
        assert value == pytest.approx(0.16 * coherent_number_moment(2, 1.0), rel=1e-12)

    def test_generator_second_moment_diagonal(self):
        # <H_j H_k> = b^2 f(2m, alpha) delta_jk
        p = states.ecs_params(3, 2.0, 0.3, m=1)
        state = oracle.build_ecs_state(p, oracle.minimal_cutoff(2.0, 1e-14) + 2)
        h1 = oracle.apply_number_power(state, 1, 1)
        h2 = oracle.apply_number_power(state, 2, 1)
        same = oracle.inner_product(h1, h1).real
        cross = oracle.inner_product(h1, h2)
        assert same == pytest.approx(0.09 * coherent_number_moment(2, 2.0), rel=1e-12)
        assert cross == 0.0

    def test_phase_evolution_preserves_norm(self):
        p = states.ecs_params(2, 1.0, 0.3)
        state = oracle.build_ecs_state(p, 20)
        evolved = oracle.apply_phase_evolution(state, [0.3, -1.1], 2)
        assert oracle.norm_sq(evolved) == pytest.approx(oracle.norm_sq(state), rel=1e-14)


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


class TestDerivativePath:
    def test_theta_independence(self, rng):
        p = states.ecs_params(2, 1.0, 0.3, m=1)
        at_zero = oracle.qfim_via_state_derivatives(p)
        theta = rng.uniform(-math.pi, math.pi, size=2)
        at_theta = oracle.qfim_via_state_derivatives(p, theta=theta)
        assert rel_frobenius(at_theta, at_zero) < 1e-9

    def test_second_order_convergence(self):
        p = states.ecs_params(2, 4.0, 0.3, m=2)
        ref = qfim.to_dense(qfim.ecs_qfim(p))
        err = [np.linalg.norm(oracle.qfim_via_state_derivatives(p, fd_step=h) - ref)
               for h in (8e-4, 4e-4)]
        assert err[0] / err[1] == pytest.approx(4.0, abs=0.5)

    def test_agrees_with_moment_path(self):
        for p in (states.ecs_params(1, 1.0, 0.5, m=1),
                  states.ecs_params(3, 0.25, 0.1, m=2),
                  states.noon_params(2, 4, m=2)):
            fd = oracle.qfim_via_state_derivatives(p)
            direct = oracle.numerical_qfim(p)
            assert rel_frobenius(fd, direct) < 1e-5

    def test_step_validation(self):
        p = states.ecs_params(1, 1.0, 0.5)
        with pytest.raises(ValueError):
            oracle.qfim_via_state_derivatives(p, fd_step=1e-2)


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


class TestDenseTensor:
    def test_norm_matches_sparse(self):
        p = states.ecs_params(1, 1.0, 0.4)
        tensor = oracle.dense_tensor_state(p, 8)
        sparse = oracle.build_ecs_state(p, 8)
        assert abs(oracle.dense_inner_product(tensor, tensor).real
                   - oracle.norm_sq(sparse)) < 1e-12

    def test_qfim_matches_sparse(self):
        p = states.ecs_params(2, 1.0, 0.3, m=1)
        dense = oracle.dense_qfim(p, 10)
        sparse = oracle.numerical_qfim(p, cutoff=10)
        assert rel_frobenius(dense, sparse) < 1e-10

    def test_size_limit(self):
        p = states.ecs_params(5, 1.0, 0.2)
        with pytest.raises(SizeLimitError):
            oracle.dense_tensor_state(p, 12)


def test_linear_combination():
    p = states.ecs_params(2, 1.0, 0.3)
    state = oracle.build_ecs_state(p, 15)
    doubled = oracle.combine([(1.0, state), (1.0, state)])
    assert oracle.norm_sq(doubled) == pytest.approx(4.0 * oracle.norm_sq(state), rel=1e-13)
