"""Oracle-equivalence verification suites.

Each suite pits a closed form against an independent computation: Stirling
moments against the raw Poisson series, analytic information matrices
against the truncated-Fock oracle, the piecewise optimum against a dense
grid scan, and the headline bound values and orderings against direct
arithmetic.  The CLI ``verify`` subcommand and the acceptance tests both run
these checks; tolerances can be overridden per check for sensitivity
studies.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Mapping

import numpy as np

from . import bounds, moments, oracle, qfim, states
from ._suites import SUITE_NAMES

__all__ = ["CheckResult", "DEFAULT_TOLERANCES", "SUITE_NAMES", "run_suite",
           "criterion_grid_params"]


@dataclass(frozen=True)
class CheckResult:
    suite: str
    name: str
    passed: bool
    discrepancy: float
    tolerance: float

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return (f"[{status}] {self.suite}/{self.name}  "
                f"max_discrepancy={self.discrepancy:.3e}  tolerance={self.tolerance:g}")


DEFAULT_TOLERANCES: dict[str, float] = {
    "moments.closed_vs_poisson": 1e-10,
    "moments.printed_coefficients": 0.0,
    "moments.printed_polynomials": 1e-14,
    "normalization.oracle_norm": 1e-10,
    "normalization.mean_photons": 1e-9,
    "qfim.oracle_vs_analytic": 1e-8,
    "qfim.fd_vs_analytic": 1e-5,
    "qfim.structured_inverse": 1e-10,
    "qfim.trace_formula": 1e-12,
    "qfim.theta_independence": 1e-9,
    "qfim.commutators": 1e-14,
    "optimizer.scan_vs_closed": 1e-3,
    "optimizer.interior_closed_forms": 1e-12,
    "optimizer.unimodal": 0.0,
    "bounds.headline_values": 1e-12,
    "bounds.independent_match": 1e-12,
    "bounds.independent_below_noon_baseline": 1.0,
    "bounds.crossing_bracket": 0.01,
    "bounds.ecs_below_noon": 1.0,
    "bounds.large_ntot_ratio": 0.05,
    "bounds.zzb_ordering": 1.0,
    "bounds.region_claim": 0.0,
    "bounds.gamma_large_alpha": 1e-10,
    "bounds.b_star_limit": 1e-6,
    "bounds.o_of_d_fit": 0.05,
}

# Shared verification grid for the analytic-vs-oracle checks.
GRID_DS = (1, 2, 3, 4)
GRID_MS = (1, 2)
GRID_ALPHA_SQS = (0.25, 1.0, 4.0)
GRID_TAIL_TOL = 1e-14
# Wide probes for the oracle-vs-analytic checks, where the simultaneous
# advantage grows: one alpha_sq, b as on the grid's upper weight.
WIDE_DS = (8, 16, 32, 64)
WIDE_ALPHA_SQ = 1.0

# The b_star -> 1/sqrt(d + sqrt d) limit converges like 1/(2 alpha_sq), so a
# 1e-6 tolerance needs alpha_sq of order 1e6.
B_STAR_LIMIT_ALPHA_SQ = 1e6


def criterion_grid_params() -> list[states.EcsParams]:
    """Probe grid: d in {1..4}, m in {1,2}, alpha_sq in {0.25, 1, 4},
    b in {0.1, min(b_star, 0.99 sqrt(Gamma))}."""
    out = []
    for d in GRID_DS:
        for m in GRID_MS:
            for alpha_sq in GRID_ALPHA_SQS:
                geom = states.domain_geometry(d, m, alpha_sq)
                b_hi = min(geom.b_star, 0.99 * math.sqrt(geom.gamma_cap))
                for b in (0.1, b_hi):
                    out.append(states.ecs_params(d, alpha_sq, b, m))
    return out


def wide_params() -> list[states.EcsParams]:
    """d in {8, 16, 32, 64}, m in {1, 2} at alpha_sq = 1, b = min(b_star, 0.99 sqrt(Gamma))."""
    out = []
    for d in WIDE_DS:
        for m in GRID_MS:
            geom = states.domain_geometry(d, m, WIDE_ALPHA_SQ)
            b = min(geom.b_star, 0.99 * math.sqrt(geom.gamma_cap))
            out.append(states.ecs_params(d, WIDE_ALPHA_SQ, b, m))
    return out


def _tol(tolerances: Mapping[str, float] | None, key: str) -> float:
    if tolerances and key in tolerances:
        return float(tolerances[key])
    return DEFAULT_TOLERANCES[key]


def _rel_frobenius(a: np.ndarray, b: np.ndarray) -> float:
    return float(np.linalg.norm(a - b) / np.linalg.norm(b))


def _check(suite: str, name: str, disc: float, tol: float) -> CheckResult:
    return CheckResult(suite=suite, name=name, passed=disc <= tol,
                       discrepancy=disc, tolerance=tol)


# ---------------------------------------------------------------- moments

def suite_moments(rng: np.random.Generator,
                  tolerances: Mapping[str, float] | None = None) -> list[CheckResult]:
    results = []

    worst = 0.0
    for m in range(13):
        for mu in (0.1, 0.5, 1.0, 2.0, 4.0, 9.0, 16.0):
            closed = moments.coherent_number_moment(m, mu)
            scale = max(1.0, closed)
            series = moments.moment_via_poisson_sum(m, mu, tail_tol=1e-12 * scale)
            worst = max(worst, abs(closed - series) / scale)
    results.append(_check("moments", "closed_vs_poisson", worst,
                          _tol(tolerances, "moments.closed_vs_poisson")))

    # coefficient rows behind the quadratic and quartic moment polynomials
    ok = (tuple(moments.stirling2(2, k) for k in range(3)) == (0, 1, 1)
          and tuple(moments.stirling2(4, k) for k in range(5)) == (0, 1, 7, 6, 1))
    results.append(_check("moments", "printed_coefficients", 0.0 if ok else 1.0,
                          _tol(tolerances, "moments.printed_coefficients")))

    worst = 0.0
    for mu in (0.1, 0.5, 1.0, 2.0, 4.0, 9.0, 16.0):
        quadratic = mu * (1.0 + mu)
        quartic = mu ** 4 + 6.0 * mu ** 3 + 7.0 * mu ** 2 + mu
        worst = max(worst,
                    abs(moments.coherent_number_moment(2, mu) - quadratic) / quadratic,
                    abs(moments.coherent_number_moment(4, mu) - quartic) / quartic)
    results.append(_check("moments", "printed_polynomials", worst,
                          _tol(tolerances, "moments.printed_polynomials")))
    return results


# ---------------------------------------------------------- normalization

def suite_normalization(rng: np.random.Generator,
                        tolerances: Mapping[str, float] | None = None) -> list[CheckResult]:
    results = []

    worst = 0.0
    for d, alpha_sq in ((1, 1.0), (2, 1.0), (3, 4.0), (5, 2.25)):
        cutoff = oracle.minimal_cutoff(alpha_sq, 1e-13) + 2
        cap = states.b_domain_limit(d, alpha_sq)
        for b in np.sqrt(cap) * np.linspace(0.0, 1.0, 1000, endpoint=False):
            p = states.ecs_params(d, alpha_sq, float(b))
            norm = oracle.norm_sq(oracle.build_ecs_state(p, cutoff))
            worst = max(worst, abs(norm - 1.0))
    results.append(_check("normalization", "oracle_norm", worst,
                          _tol(tolerances, "normalization.oracle_norm")))

    worst = 0.0
    for d, alpha_sq, b in ((2, 1.0, 0.4), (3, 2.0, 0.3), (5, 4.0, 0.35)):
        p = states.ecs_params(d, alpha_sq, b)
        cutoff = oracle.minimal_cutoff(alpha_sq, 1e-14) + 4
        from_oracle = oracle.total_photon_expectation(oracle.build_ecs_state(p, cutoff))
        closed = states.mean_total_photons(p)
        worst = max(worst, abs(from_oracle - closed) / closed)
    results.append(_check("normalization", "mean_photons", worst,
                          _tol(tolerances, "normalization.mean_photons")))
    return results


# ------------------------------------------------------------------ qfim

def suite_qfim(rng: np.random.Generator,
               tolerances: Mapping[str, float] | None = None) -> list[CheckResult]:
    results = []
    grid = criterion_grid_params()

    worst_oracle = 0.0
    worst_fd = 0.0
    worst_trace = 0.0
    worst_comm = 0.0
    for p in grid + wide_params():
        analytic = qfim.to_dense(qfim.ecs_qfim(p))
        numeric = oracle.numerical_qfim(p, tail_tol=GRID_TAIL_TOL)
        worst_oracle = max(worst_oracle, _rel_frobenius(numeric, analytic))
        fd = oracle.qfim_via_state_derivatives(p, tail_tol=GRID_TAIL_TOL)
        worst_fd = max(worst_fd, _rel_frobenius(fd, analytic))
        value = qfim.trace_inverse_bound(p)
        dense_trace = float(np.trace(np.linalg.inv(analytic)))
        worst_trace = max(worst_trace, abs(value - dense_trace) / abs(dense_trace))
        # every pair on the grid; the first and last sensing modes on wide probes
        modes = range(1, p.d + 1) if p.d <= GRID_DS[-1] else (1, p.d)
        for j in modes:
            for k in modes:
                worst_comm = max(worst_comm, abs(oracle.commutator_expectation(p, j, k)))
    results.append(_check("qfim", "oracle_vs_analytic", worst_oracle,
                          _tol(tolerances, "qfim.oracle_vs_analytic")))
    results.append(_check("qfim", "fd_vs_analytic", worst_fd,
                          _tol(tolerances, "qfim.fd_vs_analytic")))
    results.append(_check("qfim", "trace_formula", worst_trace,
                          _tol(tolerances, "qfim.trace_formula")))
    results.append(_check("qfim", "commutators", worst_comm,
                          _tol(tolerances, "qfim.commutators")))

    worst = 0.0
    for _ in range(10_000):
        d = int(rng.integers(1, 9))
        gamma = float(rng.uniform(0.1, 10.0))
        omega = float(rng.uniform(-1.0 / d, 5.0))
        if 1.0 + omega * d == 0.0:
            continue
        f = qfim.StructuredQfim(d=d, gamma=gamma, omega=omega)
        product = qfim.to_dense(f) @ qfim.to_dense(qfim.qfim_inverse(f))
        worst = max(worst, float(np.max(np.abs(product - np.eye(d)))))
    results.append(_check("qfim", "structured_inverse", worst,
                          _tol(tolerances, "qfim.structured_inverse")))

    worst = 0.0
    for p in (states.ecs_params(2, 1.0, 0.3, 1), states.ecs_params(3, 4.0, 0.2, 2)):
        at_zero = oracle.qfim_via_state_derivatives(p, tail_tol=GRID_TAIL_TOL)
        theta = rng.uniform(-math.pi, math.pi, size=p.d)
        at_random = oracle.qfim_via_state_derivatives(p, theta=theta,
                                                      tail_tol=GRID_TAIL_TOL)
        worst = max(worst, _rel_frobenius(at_random, at_zero))
    results.append(_check("qfim", "theta_independence", worst,
                          _tol(tolerances, "qfim.theta_independence")))
    return results


# ------------------------------------------------------------- optimizer

def optimizer_draws(rng: np.random.Generator, count: int = 50) -> list[tuple[int, int, float]]:
    return [(int(rng.integers(1, 11)), int(rng.integers(1, 3)),
             float(rng.uniform(0.5, 25.0))) for _ in range(count)]


def suite_optimizer(rng: np.random.Generator,
                    tolerances: Mapping[str, float] | None = None) -> list[CheckResult]:
    results = []
    draws = optimizer_draws(rng)

    worst_scan = 0.0
    worst_interior = 0.0
    bad_shape = 0.0
    for d, m, alpha_sq in draws:
        closed = bounds.minimize_bound_over_b(d, m, alpha_sq)
        scan = bounds.grid_scan_minimizer(d, m, alpha_sq, grid_points=10_000)
        worst_scan = max(worst_scan, abs(scan.value - closed.value) / closed.value)
        if closed.regime is bounds.Regime.INTERIOR:
            formula = (bounds.ecs_linear_value(d, alpha_sq) if m == 1
                       else bounds.ecs_nonlinear_value(d, alpha_sq))
            worst_interior = max(worst_interior,
                                 abs(closed.value - formula) / formula)
        geom = states.domain_geometry(d, m, alpha_sq)
        pole = geom.g / d
        hi = min(geom.gamma_cap, pole)
        beta = np.linspace(0.0, hi, 2001)[1:-1]
        f_2m = moments.coherent_number_moment(2 * m, alpha_sq)
        values = d / (4.0 * f_2m) * (1.0 / beta + 1.0 / (geom.g - beta * d))
        diffs = np.diff(values)
        rising = np.nonzero(diffs > 0)[0]
        first_rise = rising[0] if len(rising) else len(diffs)
        if np.any(diffs[first_rise:] < 0):
            bad_shape += 1.0
    results.append(_check("optimizer", "scan_vs_closed", worst_scan,
                          _tol(tolerances, "optimizer.scan_vs_closed")))
    results.append(_check("optimizer", "interior_closed_forms", worst_interior,
                          _tol(tolerances, "optimizer.interior_closed_forms")))
    results.append(_check("optimizer", "unimodal", bad_shape,
                          _tol(tolerances, "optimizer.unimodal")))
    return results


# ---------------------------------------------------------------- bounds

def o_of_d_advantage_fit(ds: Iterable[int] = (4, 8, 16, 32, 64),
                         alpha_sq: float = 100.0) -> tuple[float, float, np.ndarray]:
    """Least-squares fit of the independent-vs-simultaneous advantage to c*d.

    Each of the d independent probes runs at the given per-probe intensity;
    the simultaneous probe is granted the same total photon budget.  Returns
    (c, relative residual, ratios) where the relative residual is the
    residual sum of squares of the one-parameter fit over the squared norm
    of the data.
    """
    ds = np.asarray(list(ds), dtype=float)
    ratios = []
    for d in ds.astype(int):
        independent = bounds.qcrb_independent_ecs(int(d), alpha_sq).value
        n_tot = bounds.independent_ecs_total_photons(int(d), alpha_sq)
        simultaneous = bounds.qcrb_ecs_linear(int(d), n_tot).value
        ratios.append(independent / simultaneous)
    ratios = np.asarray(ratios)
    c = float(np.dot(ds, ratios) / np.dot(ds, ds))
    residual = float(np.sum((ratios - c * ds) ** 2) / np.sum(ratios ** 2))
    return c, residual, ratios


def crossing_bracket(d: int = 5, step: float = 0.01) -> tuple[float, float]:
    """One-cell bracket where the m=1 coherent bound crosses the m=2 NOON bound."""
    def diff(n: float) -> float:
        return bounds.ecs_linear_value(d, n) - bounds.noon_nonlinear_value(d, n)

    steps = int(round(99.0 / step))
    prev = diff(1.0)
    for i in range(1, steps + 1):
        n = 1.0 + step * i
        cur = diff(n)
        if (prev < 0.0) != (cur < 0.0):
            return 1.0 + step * (i - 1), n
        prev = cur
    raise AssertionError("no crossing found on [1, 100]")


def suite_bounds(rng: np.random.Generator,
                 tolerances: Mapping[str, float] | None = None) -> list[CheckResult]:
    results = []

    scale = 5.0 * (math.sqrt(5.0) + 1.0) ** 2
    headline = max(
        abs(bounds.qcrb_ecs_linear(5, 4.0).value - scale / 100.0) / (scale / 100.0),
        abs(bounds.qcrb_noon_linear(5, 10.0).value - scale / 400.0) / (scale / 400.0),
        abs(bounds.qcrb_noon_nonlinear(5, 10.0).value
            - bounds.qcrb_noon_linear(5, 10.0).value / 100.0) / (scale / 40000.0),
    )
    results.append(_check("bounds", "headline_values", headline,
                          _tol(tolerances, "bounds.headline_values")))

    worst = 0.0
    for d, alpha_sq in ((1, 1.0), (2, 4.0), (3, 36.0), (5, 9.0), (10, 0.5)):
        direct = bounds.qcrb_independent_ecs(d, alpha_sq).value
        n_tot = bounds.independent_ecs_total_photons(d, alpha_sq)
        via_ntot = bounds.independent_ecs_vs_ntot(d, n_tot).value
        worst = max(worst, abs(direct - via_ntot) / direct)
    results.append(_check("bounds", "independent_match", worst,
                          _tol(tolerances, "bounds.independent_match")))

    worst_ratio = 0.0
    for d in (2, 5, 10):
        for n_tot in np.arange(1.0, 100.0 + 1e-9, 0.5):
            ecs_ind = bounds.independent_ecs_vs_ntot(d, float(n_tot)).value
            noon_ind = bounds.qcrb_independent_noon(d, float(n_tot)).value
            worst_ratio = max(worst_ratio, ecs_ind / noon_ind)
    results.append(CheckResult("bounds", "independent_below_noon_baseline",
                               worst_ratio < _tol(tolerances, "bounds.independent_below_noon_baseline"),
                               worst_ratio,
                               _tol(tolerances, "bounds.independent_below_noon_baseline")))

    golden = (1.0 + math.sqrt(5.0)) / 2.0
    lo, hi = crossing_bracket(5)
    disc = abs(0.5 * (lo + hi) - golden) if lo <= golden <= hi else math.inf
    results.append(_check("bounds", "crossing_bracket", disc,
                          _tol(tolerances, "bounds.crossing_bracket")))

    grid = np.arange(1.0, 100.0 + 1e-9, 0.5)
    ratio = np.array([bounds.ecs_linear_value(5, n) / bounds.noon_linear_value(5, n)
                      for n in grid])
    results.append(CheckResult("bounds", "ecs_below_noon",
                               float(ratio.max()) < _tol(tolerances, "bounds.ecs_below_noon"),
                               float(ratio.max()),
                               _tol(tolerances, "bounds.ecs_below_noon")))

    tail = ratio[grid >= 50.0]
    tail_disc = max(0.95 - float(tail.min()), float(tail.max()) - 1.0, 0.0)
    results.append(_check("bounds", "large_ntot_ratio", tail_disc,
                          _tol(tolerances, "bounds.large_ntot_ratio")))

    worst_zzb = 0.0
    for alpha_sq in (4.0, 9.0, 16.0):
        worst_zzb = max(worst_zzb, bounds.zzb_ecs(5, alpha_sq).value
                        / bounds.zzb_noon(5, alpha_sq).value)
    big = bounds.zzb_noon(50, 10.0)
    if big.value != big.params["branch_first"]:
        worst_zzb = math.inf
    results.append(CheckResult("bounds", "zzb_ordering",
                               worst_zzb < _tol(tolerances, "bounds.zzb_ordering"),
                               worst_zzb, _tol(tolerances, "bounds.zzb_ordering")))

    misclassified = 0.0
    for d in range(1, 11):
        for alpha in np.linspace(2.5, 4.0, 61):
            if not bounds.region_classify(d, float(alpha), 1).interior:
                misclassified += 1.0
    results.append(_check("bounds", "region_claim", misclassified,
                          _tol(tolerances, "bounds.region_claim")))

    worst = max(abs(states.b_domain_limit(d, 49.0) - 1.0 / d) for d in range(1, 11))
    results.append(_check("bounds", "gamma_large_alpha", worst,
                          _tol(tolerances, "bounds.gamma_large_alpha")))

    worst = max(abs(states.b_star(d, 1, B_STAR_LIMIT_ALPHA_SQ) - states.noon_optimal_b(d))
                for d in range(1, 11))
    results.append(_check("bounds", "b_star_limit", worst,
                          _tol(tolerances, "bounds.b_star_limit")))

    _, residual, _ = o_of_d_advantage_fit()
    results.append(_check("bounds", "o_of_d_fit", residual,
                          _tol(tolerances, "bounds.o_of_d_fit")))
    return results


_SUITES = {
    "moments": suite_moments,
    "normalization": suite_normalization,
    "qfim": suite_qfim,
    "optimizer": suite_optimizer,
    "bounds": suite_bounds,
}


def run_suite(name: str, seed: int = 0,
              tolerances: Mapping[str, float] | None = None) -> list[CheckResult]:
    """Run one suite (or 'all'); deterministic for a given seed."""
    if name == "all":
        out = []
        for suite in SUITE_NAMES:
            out.extend(_SUITES[suite](np.random.default_rng(seed), tolerances))
        return out
    if name not in _SUITES:
        raise ValueError(f"unknown suite {name!r}; choose from {SUITE_NAMES + ('all',)}")
    return _SUITES[name](np.random.default_rng(seed), tolerances)
