import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from phasebounds import oracle, qfim, states
from phasebounds.errors import DegenerateInputError, SingularMatrixError
from phasebounds.moments import coherent_moments, coherent_number_moment

from conftest import rel_frobenius


class TestEcsQfim:
    def test_single_mode_value(self):
        p = states.ecs_params(1, 1.0, 0.5)
        dense = qfim.to_dense(qfim.ecs_qfim(p))
        # 4 [0.25 * f(2,1) - 0.0625 * f(1,1)^2] = 4 (0.5 - 0.0625)
        assert dense == pytest.approx(np.array([[1.75]]), rel=1e-15)

    def test_dense_entries_match_definition(self):
        p = states.ecs_params(3, 1.0, 0.3, m=2)
        dense = qfim.to_dense(qfim.ecs_qfim(p))
        diag = 4.0 * (0.09 * 15.0 - 0.0081 * 4.0)
        off = -4.0 * 0.0081 * 4.0
        expected = np.full((3, 3), off)
        np.fill_diagonal(expected, diag)
        assert dense == pytest.approx(expected, rel=1e-14)

    def test_entries_vanish_with_b(self):
        values = []
        for b in (1e-3, 1e-5):
            f = qfim.ecs_qfim(states.ecs_params(2, 1.0, b))
            values.append(abs(f.gamma))
        assert values[1] < values[0] * 1e-3

    def test_degenerate_inputs(self):
        with pytest.raises(DegenerateInputError):
            qfim.ecs_qfim(states.ecs_params(2, 1.0, 0.0))

    def test_positive_definite(self):
        p = states.ecs_params(2, 1.0, 0.3)
        f = qfim.ecs_qfim(p)
        eigs = np.linalg.eigvalsh(qfim.to_dense(f))
        assert np.all(eigs > 0)


class TestNoonQfim:
    def test_matches_oracle(self):
        p = states.noon_params(2, 3, m=1)
        analytic = qfim.to_dense(qfim.noon_qfim(p))
        numeric = oracle.numerical_qfim(p)
        assert rel_frobenius(numeric, analytic) < 1e-12

    def test_structure(self):
        # F_jk = 4 b^2 N^{2m} (delta_jk - b^2)
        p = states.noon_params(3, 4, b=0.4, m=2)
        f = qfim.noon_qfim(p)
        assert f.gamma == pytest.approx(4.0 * 0.16 * 4.0 ** 4, rel=1e-15)
        assert f.omega == pytest.approx(-0.16, rel=1e-15)


class TestStructuredInverse:
    def test_scaled_identity(self):
        inv = qfim.qfim_inverse(qfim.StructuredQfim(d=5, gamma=2.0, omega=0.0))
        assert (inv.gamma, inv.omega) == (0.5, 0.0)

    def test_known_values(self):
        inv = qfim.qfim_inverse(qfim.StructuredQfim(d=2, gamma=1.0, omega=1.0))
        assert inv.gamma == 1.0
        assert inv.omega == pytest.approx(-1.0 / 3.0, rel=1e-15)
        product = qfim.to_dense(qfim.StructuredQfim(d=2, gamma=1.0, omega=1.0)) @ qfim.to_dense(inv)
        assert product == pytest.approx(np.eye(2), abs=1e-15)

        inv = qfim.qfim_inverse(qfim.StructuredQfim(d=4, gamma=4.0, omega=-0.1))
        assert inv.gamma == 0.25
        assert inv.omega == pytest.approx(0.1 / 0.6, rel=1e-15)

    def test_against_numpy_inverse(self, rng):
        for _ in range(200):
            d = int(rng.integers(1, 9))
            f = qfim.StructuredQfim(d=d, gamma=float(rng.uniform(0.1, 10.0)),
                                    omega=float(rng.uniform(-1.0 / d + 1e-3, 5.0)))
            expected = np.linalg.inv(qfim.to_dense(f))
            assert rel_frobenius(qfim.to_dense(qfim.qfim_inverse(f)), expected) < 1e-10

    def test_singularity(self):
        with pytest.raises(SingularMatrixError):
            qfim.qfim_inverse(qfim.StructuredQfim(d=4, gamma=1.0, omega=-0.25))
        with pytest.raises(SingularMatrixError):
            qfim.qfim_inverse(qfim.StructuredQfim(d=4, gamma=0.0, omega=0.5))


@settings(max_examples=300, deadline=None)
@given(d=st.integers(min_value=1, max_value=8),
       gamma=st.floats(min_value=0.1, max_value=10.0),
       scaled=st.floats(min_value=-0.999, max_value=5.0))
def test_inverse_identity_property(d, gamma, scaled):
    # omega spans (-1/d, 5]; the error budget grows with the conditioning
    # factor |omega| d / |1 + omega d| near the singular edge
    omega = scaled / d if scaled < 0.0 else scaled
    f = qfim.StructuredQfim(d=d, gamma=gamma, omega=omega)
    product = qfim.to_dense(f) @ qfim.to_dense(qfim.qfim_inverse(f))
    budget = 1e-12 * max(1.0, abs(omega) * d / abs(1.0 + omega * d)) + 1e-13
    assert np.max(np.abs(product - np.eye(d))) < budget


class TestDenseRoundTrip:
    def test_to_dense_identity(self):
        assert np.array_equal(qfim.to_dense(qfim.StructuredQfim(d=3, gamma=1.0, omega=0.0)),
                              np.eye(3))

    def test_to_dense_values(self):
        dense = qfim.to_dense(qfim.StructuredQfim(d=2, gamma=2.0, omega=0.5))
        assert np.array_equal(dense, np.array([[3.0, 1.0], [1.0, 3.0]]))


class TestTraceInverseBound:
    def test_single_mode_value(self):
        p = states.ecs_params(1, 1.0, 0.5)
        # (1/8) (4 + 1/(2 - 0.25))
        assert qfim.trace_inverse_bound(p) == pytest.approx(0.125 * (4.0 + 1.0 / 1.75),
                                                            rel=1e-15)

    def test_matches_dense_inverse_trace(self):
        for d in (1, 2, 3, 4):
            for m in (1, 2):
                for alpha_sq in (0.25, 1.0, 4.0):
                    geom = states.domain_geometry(d, m, alpha_sq)
                    for b in (0.1, min(geom.b_star, 0.99 * math.sqrt(geom.gamma_cap))):
                        p = states.ecs_params(d, alpha_sq, b, m)
                        dense = qfim.to_dense(qfim.ecs_qfim(p))
                        trace = float(np.trace(np.linalg.inv(dense)))
                        assert qfim.trace_inverse_bound(p) == pytest.approx(trace, rel=1e-12)

    def test_diverges_toward_zero_b(self):
        values = [qfim.trace_inverse_bound(states.ecs_params(3, 1.0, b))
                  for b in (0.2, 0.02, 0.002)]
        assert values[0] < values[1] < values[2]

    def test_pole_lies_beyond_the_domain_cap(self):
        # the divergence at b^2 = g/d is never reachable by a normalizable
        # state: g/d > Gamma throughout, so the bound is finite on (0, Gamma]
        for d in (1, 2, 5, 20):
            for m in (1, 2):
                for alpha_sq in (0.05, 1.0, 9.0, 100.0):
                    _, _, g = coherent_moments(m, alpha_sq)
                    assert g / d > states.b_domain_limit(d, alpha_sq)

    def test_degenerate_weight(self):
        with pytest.raises(DegenerateInputError):
            qfim.trace_inverse_bound(states.ecs_params(2, 1.0, 0.0))

    def test_value_at_the_pole_raises(self):
        geom = states.domain_geometry(2, 1, 1.0)
        pole = geom.g / 2
        with pytest.raises(SingularMatrixError) as info:
            qfim.trace_inverse_value(2, geom.f_2m, geom.g, pole)
        assert str(info.value) == (f"b^2 = {pole:.12g} >= g/d = {pole:.12g}: information "
                                   "matrix singular or indefinite, bound undefined")
        # an array names its first b^2 at or past the pole
        with pytest.raises(SingularMatrixError, match=f"^b\\^2 = {2 * pole:.12g} >= "):
            qfim.trace_inverse_value(2, geom.f_2m, geom.g, np.array([0.5, 2.0, 3.0]) * pole)


class TestEffectiveQfi:
    def test_values(self):
        assert qfim.effective_qfi_2param(np.eye(2)) == 0.5
        assert qfim.effective_qfi_2param(np.array([[3.0, 1.0], [1.0, 3.0]])) == pytest.approx(
            8.0 / 6.0, rel=1e-15)

    def test_consistency_with_trace_bound(self):
        p = states.ecs_params(2, 4.0, 0.3, m=1)
        f_e = qfim.effective_qfi_2param(qfim.to_dense(qfim.ecs_qfim(p)))
        assert 1.0 / f_e == pytest.approx(qfim.trace_inverse_bound(p), rel=1e-12)

    def test_dimension_error(self):
        with pytest.raises(ValueError):
            qfim.effective_qfi_2param(np.eye(3))

    def test_not_positive_definite(self):
        with pytest.raises(SingularMatrixError):
            qfim.effective_qfi_2param(np.array([[1.0, 2.0], [2.0, 1.0]]))


def test_analytic_matches_oracle_on_grid():
    for d in (1, 2, 3):
        for m in (1, 2):
            for alpha_sq in (0.25, 1.0):
                geom = states.domain_geometry(d, m, alpha_sq)
                b = min(geom.b_star, 0.99 * math.sqrt(geom.gamma_cap))
                p = states.ecs_params(d, alpha_sq, b, m)
                analytic = qfim.to_dense(qfim.ecs_qfim(p))
                assert rel_frobenius(oracle.numerical_qfim(p), analytic) < 1e-8


def test_trace_formula_equals_m1_expansion():
    # for m = 1 the general trace expression reduces to
    # d / (4 mu (1 + mu)) (1/b^2 + 1/(1 + 1/mu - d b^2))
    d, mu, b = 3, 2.0, 0.25
    p = states.ecs_params(d, mu, b)
    direct = d / (4.0 * mu * (1.0 + mu)) * (1.0 / b ** 2 + 1.0 / (1.0 + 1.0 / mu - d * b ** 2))
    assert qfim.trace_inverse_bound(p) == pytest.approx(direct, rel=1e-14)
    assert coherent_number_moment(2, mu) == pytest.approx(mu * (1 + mu), rel=1e-15)
