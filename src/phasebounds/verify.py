"""Oracle-equivalence checks and the suites that group them.

Each check pits a closed form against an independent computation: Stirling
moments against sums over the oracle's Poisson walk, analytic information
matrices and the independent-estimation baselines against the truncated-Fock
oracle, the piecewise optimum against a brute-force scan of Tr(F^-1) over b^2
(``_trace_scan``, also read for the bound's shape), and the headline bound
values and orderings against direct arithmetic.  ``qfim.oracle_vs_analytic``
measures the oracle's one information-matrix routine once per probe, and
``qfim.fd_vs_analytic`` judges that measurement at its own looser tolerance;
both keys stay because benchmark reports name them.
Every check is a named function of explicit inputs (a probe list, an rng,
optimizer draws or an n_tot grid) that measures one
discrepancy and returns it as a ``CheckResult`` at its pinned tolerance,
``DEFAULT_TOLERANCES["<suite>.<name>"]``.  The pass rule is written once,
on ``CheckResult``.  The ``suite_*`` functions are lists of calls on the
``verify`` subcommand's inputs; the acceptance gate calls the same
functions on its own pinned inputs, so each comparison is written once.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Iterable

import numpy as np

from . import bounds, moments, oracle, qfim, states
from ._record import Record, set_field
from ._domain import SUITE_NAMES

__all__ = ["CheckResult", "DEFAULT_TOLERANCES", "SUITE_NAMES", "run_suite",
           "criterion_grid_params", "optimizer_draws"]

Draws = Iterable[tuple[int, int, float]]  # (d, m, alpha_sq)


class CheckResult(Record):
    __slots__ = ("suite", "name", "discrepancy", "tolerance", "strict")

    def __init__(self, suite: str, name: str, discrepancy: float, tolerance: float,
                 strict: bool = False) -> None:
        set_field(self, "suite", suite)
        set_field(self, "name", name)
        set_field(self, "discrepancy", discrepancy)
        set_field(self, "tolerance", tolerance)
        set_field(self, "strict", strict)

    @property
    def key(self) -> str:
        return f"{self.suite}.{self.name}"

    @property
    def passed(self) -> bool:
        """discrepancy <= tolerance, or < for a strict check; NaN never passes."""
        if self.strict:
            return self.discrepancy < self.tolerance
        return self.discrepancy <= self.tolerance

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
    "qfim.commutators": 1e-14,
    "optimizer.scan_vs_closed": 1e-3,
    "optimizer.interior_closed_forms": 1e-12,
    "optimizer.unimodal": 0.0,
    "bounds.headline_values": 1e-12,
    "bounds.noon_pair_exact": 0.0,
    "bounds.independent_match": 1e-12,
    "bounds.independent_vs_oracle": 1e-12,
    "bounds.independent_below_noon_baseline": 1.0,
    "bounds.crossing_bracket": 0.01,
    "bounds.ecs_below_noon": 1.0,
    "bounds.large_ntot_ratio": 0.05,
    "bounds.zzb_ordering": 1.0,
    "bounds.region_claim": 0.0,
    "bounds.gamma_large_alpha": 1e-10,
    "bounds.b_star_approach": 1e-6,
    "bounds.b_star_limit": 1e-6,
    "bounds.o_of_d_fit": 0.05,
}

# Shared verification grid for the analytic-vs-oracle checks.
GRID_DS = (1, 2, 3, 4)
GRID_MS = (1, 2)
GRID_ALPHA_SQS = (0.25, 1.0, 4.0)
# Wide probes for the oracle-vs-analytic checks, where the simultaneous
# advantage grows: one alpha_sq, b as on the grid's upper weight.
WIDE_DS = (8, 16, 32, 64)
WIDE_ALPHA_SQ = 1.0

MOMENT_MUS = (0.1, 0.5, 1.0, 2.0, 4.0, 9.0, 16.0, 1e3, 1e4, 9e4)
HEADLINE_SCALE = 5.0 * (math.sqrt(5.0) + 1.0) ** 2  # d (sqrt d + 1)^2 at d = 5
GOLDEN = (1.0 + math.sqrt(5.0)) / 2.0
# b_star exceeds 1/sqrt(d + sqrt d) by about 1/(2 alpha_sq): its approach is
# checked against the exact finite-alpha form at a moderate amplitude, and
# the limit itself at one where 1/(2 alpha_sq) is below the 1e-6 tolerance.
B_STAR_APPROACH_ALPHA_SQ = 49.0
B_STAR_LIMIT_ALPHA_SQ = 1e6


def _upper_weight(d: int, m: int, alpha_sq: float) -> float:
    """min(b_star, 0.99 sqrt(Gamma)): the optimal weight, kept inside the cap."""
    geom = states.domain_geometry(d, m, alpha_sq)
    return min(geom.b_star, 0.99 * math.sqrt(geom.gamma_cap))


def criterion_grid_params() -> list[states.EcsParams]:
    """Probe grid: d in {1..4}, m in {1,2}, alpha_sq in {0.25, 1, 4},
    b in {0.1, min(b_star, 0.99 sqrt(Gamma))}."""
    return [states.ecs_params(d, alpha_sq, b, m)
            for d in GRID_DS for m in GRID_MS for alpha_sq in GRID_ALPHA_SQS
            for b in (0.1, _upper_weight(d, m, alpha_sq))]


def wide_params() -> list[states.EcsParams]:
    """d in {8, 16, 32, 64}, m in {1, 2} at alpha_sq = 1, b = min(b_star, 0.99 sqrt(Gamma))."""
    return [states.ecs_params(d, WIDE_ALPHA_SQ, _upper_weight(d, m, WIDE_ALPHA_SQ), m)
            for d in WIDE_DS for m in GRID_MS]


def noon_grid_params() -> list[states.NoonParams]:
    """d in {1..4}, m in {1, 2}, N in {1, 3}, b = noon_optimal_b(d)."""
    return [states.noon_params(d, n, m=m) for d in GRID_DS for m in GRID_MS for n in (1, 3)]


def optimizer_draws(rng: np.random.Generator) -> list[tuple[int, int, float]]:
    """50 (d, m, alpha_sq) draws for the optimizer checks."""
    return [(int(rng.integers(1, 11)), int(rng.integers(1, 3)),
             float(rng.uniform(0.5, 25.0))) for _ in range(50)]


def _ntot_grid(step: float) -> np.ndarray:
    """n_tot from 1 to 100 in the given step."""
    return 1.0 + step * np.arange(int(round(99.0 / step)) + 1)


def _check(key: str, disc: float, strict: bool = False) -> CheckResult:
    """The discrepancy of one check, at its default tolerance."""
    suite, name = key.split(".")
    return CheckResult(suite, name, disc, DEFAULT_TOLERANCES[key], strict)


def _worst(values: Iterable[float]) -> float:
    """The largest of the values; NaN if any is NaN, so a NaN never passes."""
    return float(np.max(np.fromiter(values, float)))


def _rel_frobenius(a: np.ndarray, b: np.ndarray) -> float:
    return float(np.linalg.norm(a - b) / np.linalg.norm(b))


def _analytic(p: states.EcsParams | states.NoonParams) -> np.ndarray:
    return qfim.to_dense(qfim.probe_qfim(p))


# ---------------------------------------------------------------- moments

def closed_vs_poisson() -> CheckResult:
    """Stirling-form moments f(m), m <= 12, against sums over the oracle's
    Poisson walk, one walk per mu."""
    def rels(mu: float):
        for m, series in enumerate(oracle.poisson_moments(mu, 12)):
            closed = moments.coherent_number_moment(m, mu)
            yield abs(closed - series) / max(1.0, closed)

    worst = _worst(itertools.chain.from_iterable(map(rels, MOMENT_MUS)))
    return _check("moments.closed_vs_poisson", worst)


def printed_coefficients() -> CheckResult:
    """The Stirling rows behind the quadratic and quartic moment polynomials, exactly."""
    ok = (tuple(moments.stirling2(2, k) for k in range(3)) == (0, 1, 1)
          and tuple(moments.stirling2(4, k) for k in range(5)) == (0, 1, 7, 6, 1))
    return _check("moments.printed_coefficients", 0.0 if ok else 1.0)


def printed_polynomials() -> CheckResult:
    """f(2) = mu(1 + mu) and f(4) = mu^4 + 6 mu^3 + 7 mu^2 + mu."""
    def rels(mu: float) -> tuple[float, float]:
        quadratic = mu * (1.0 + mu)
        quartic = mu ** 4 + 6.0 * mu ** 3 + 7.0 * mu ** 2 + mu
        return (abs(moments.coherent_number_moment(2, mu) - quadratic) / quadratic,
                abs(moments.coherent_number_moment(4, mu) - quartic) / quartic)

    worst = _worst(itertools.chain.from_iterable(map(rels, MOMENT_MUS)))
    return _check("moments.printed_polynomials", worst)


def suite_moments(rng: np.random.Generator) -> list[CheckResult]:
    return [closed_vs_poisson(), printed_coefficients(), printed_polynomials()]


# ---------------------------------------------------------- normalization

def oracle_norm() -> CheckResult:
    """The oracle's norm of the solved probe over 1000 weights below the cap."""
    def deviations():
        for d, alpha_sq in ((1, 1.0), (2, 1.0), (3, 4.0), (5, 2.25)):
            cutoff = oracle.minimal_cutoff(alpha_sq, 1e-13) + 2
            cap = states.b_domain_limit(d, alpha_sq)
            for b in np.sqrt(cap) * np.linspace(0.0, 1.0, 1000, endpoint=False):
                p = states.ecs_params(d, alpha_sq, float(b))
                yield abs(oracle.norm_sq(oracle.build_state(p, cutoff)) - 1.0)

    return _check("normalization.oracle_norm", _worst(deviations()))


def mean_photons() -> CheckResult:
    """Closed-form mean total photon number against the oracle's."""
    def rel(d: int, alpha_sq: float, b: float) -> float:
        p = states.ecs_params(d, alpha_sq, b)
        cutoff = oracle.minimal_cutoff(alpha_sq, 1e-14) + 4
        from_oracle = oracle.total_photon_expectation(oracle.build_state(p, cutoff))
        closed = states.mean_total_photons(p)
        return abs(from_oracle - closed) / closed

    worst = _worst(itertools.starmap(rel, ((2, 1.0, 0.4), (3, 2.0, 0.3), (5, 4.0, 0.35))))
    return _check("normalization.mean_photons", worst)


def suite_normalization(rng: np.random.Generator) -> list[CheckResult]:
    return [oracle_norm(), mean_photons()]


# ------------------------------------------------------------------ qfim

def oracle_vs_analytic(probes: Iterable[states.EcsParams]) -> CheckResult:
    """Moment-path oracle QFIM against the analytic matrix, relative Frobenius."""
    worst = _worst(_rel_frobenius(oracle.numerical_qfim(p), _analytic(p)) for p in probes)
    return _check("qfim.oracle_vs_analytic", worst)


def fd_vs_analytic(measured: CheckResult) -> CheckResult:
    """``oracle_vs_analytic``'s discrepancy at the derivative path's tolerance: that path
    is the moment path (d_j psi = i H_j psi exactly), so the oracle is not run again."""
    return _check("qfim.fd_vs_analytic", measured.discrepancy)


def trace_formula(probes: Iterable[states.EcsParams]) -> CheckResult:
    """The closed-form Tr(F^-1) against the trace of the dense inverse."""
    def rel(p: states.EcsParams) -> float:
        dense_trace = float(np.trace(np.linalg.inv(_analytic(p))))
        return abs(qfim.trace_inverse_bound(p) - dense_trace) / abs(dense_trace)

    return _check("qfim.trace_formula", _worst(map(rel, probes)))


def commutators(probes: Iterable[states.EcsParams]) -> CheckResult:
    """|<[H_j, H_k]>|: every mode pair of a grid probe, the first and last of a wide one.

    The generators are diagonal, so this is exactly 0 on any oracle: it confirms
    that they commute (why the bound is attainable), not the oracle's numbers.
    """
    def pairs(p: states.EcsParams):
        modes = range(1, p.d + 1) if p.d <= GRID_DS[-1] else (1, p.d)
        return itertools.product(modes, modes)

    worst = _worst(abs(oracle.commutator_expectation(p, j, k))
                   for p in probes for j, k in pairs(p))
    return _check("qfim.commutators", worst)


def structured_inverse(rng: np.random.Generator) -> CheckResult:
    """F F^-1 = I for 10^4 random structured matrices; consumes 3 draws each."""
    def residual() -> float:
        d = int(rng.integers(1, 9))
        f = qfim.StructuredQfim(d=d, gamma=float(rng.uniform(0.1, 10.0)),
                                omega=float(rng.uniform(-1.0 / d, 5.0)))
        if 1.0 + f.omega * d == 0.0:
            return 0.0
        product = qfim.to_dense(f) @ qfim.to_dense(qfim.qfim_inverse(f))
        return float(np.max(np.abs(product - np.eye(d))))

    worst = _worst(residual() for _ in range(10_000))
    return _check("qfim.structured_inverse", worst)


def suite_qfim(rng: np.random.Generator) -> list[CheckResult]:
    probes = criterion_grid_params() + wide_params() + noon_grid_params()
    return [measured := oracle_vs_analytic(probes), fd_vs_analytic(measured),
            trace_formula(probes), commutators(probes), structured_inverse(rng)]


# ------------------------------------------------------------- optimizer

def _trace_scan(d: int, m: int, alpha_sq: float) -> tuple[np.ndarray, np.ndarray]:
    """Tr(F^-1) by brute force on 10^4 values of b^2: ``(beta, values)``.

    The samples are spaced evenly over (0, min(Gamma, g/d)], the endpoint
    kept only where the cap Gamma binds: the bound diverges at the pole
    b^2 = g/d, so that end stays open.
    """
    geom = states.domain_geometry(d, m, alpha_sq)
    pole = geom.g / d
    beta = np.linspace(0.0, min(geom.gamma_cap, pole), 10_001)[1:]
    if pole <= geom.gamma_cap:
        beta = beta[:-1]
    return beta, qfim.trace_inverse_value(d, geom.f_2m, geom.g, beta)


def scan_vs_closed(draws: Draws) -> CheckResult:
    """The piecewise optimum against the minimum of the b^2 scan."""
    def rel(d: int, m: int, alpha_sq: float) -> float:
        closed = bounds.minimize_bound_over_b(d, m, alpha_sq).value
        scan = float(np.min(_trace_scan(d, m, alpha_sq)[1]))
        return abs(scan - closed) / closed

    return _check("optimizer.scan_vs_closed", _worst(itertools.starmap(rel, draws)))


def _closed_form(d: int, m: int, mu: float) -> float:
    """The interior optimum written out in alpha_sq = mu, for m = 1 and m = 2:
    d (sqrt d + 1)^2 / 4 times 1/(1 + mu)^2, or ((1 + mu)/(mu^3 + 6 mu^2 + 7 mu + 1))^2."""
    ratio = 1.0 / (1.0 + mu) if m == 1 else (1.0 + mu) / (((mu + 6.0) * mu + 7.0) * mu + 1.0)
    return d * (math.sqrt(d) + 1.0) ** 2 / 4.0 * ratio ** 2


def interior_closed_forms(draws: Draws) -> CheckResult:
    """Where the optimum is interior, it equals the closed form in alpha_sq."""
    def rel(d: int, m: int, alpha_sq: float) -> float:
        closed = bounds.minimize_bound_over_b(d, m, alpha_sq)
        if closed.regime is not bounds.Regime.INTERIOR:
            return 0.0
        formula = _closed_form(d, m, alpha_sq)
        return abs(closed.value - formula) / formula

    worst = _worst(itertools.starmap(rel, draws))
    return _check("optimizer.interior_closed_forms", worst)


def unimodal(draws: Draws) -> CheckResult:
    """Count of draws whose b^2 scan falls again after it first rises."""
    def bad_shape(d: int, m: int, alpha_sq: float) -> bool:
        diffs = np.diff(_trace_scan(d, m, alpha_sq)[1])
        rising = np.nonzero(diffs > 0)[0]
        first_rise = rising[0] if len(rising) else len(diffs)
        return bool(np.any(diffs[first_rise:] < 0))

    count = float(sum(itertools.starmap(bad_shape, draws)))
    return _check("optimizer.unimodal", count)


def suite_optimizer(rng: np.random.Generator) -> list[CheckResult]:
    draws = optimizer_draws(rng)
    return [scan_vs_closed(draws), interior_closed_forms(draws), unimodal(draws)]


# ---------------------------------------------------------------- bounds

def o_of_d_advantage_fit() -> tuple[float, float, np.ndarray]:
    """Least-squares fit of the independent-vs-simultaneous advantage to c*d.

    For d in 4, 8, 16, 32, 64, each of the d independent probes runs at
    alpha_sq = 100; the simultaneous probe is granted the same total photon
    budget.  Returns
    (c, relative residual, ratios) where the relative residual is the
    residual sum of squares of the one-parameter fit over the squared norm
    of the data.
    """
    ds = np.array([4.0, 8.0, 16.0, 32.0, 64.0])
    independent = [bounds.qcrb_independent_ecs(int(d), 100.0) for d in ds]
    ratios = np.array([r.value / bounds.minimize_bound_over_b(r.params["d"], 1,
                                                              r.params["n_tot"]).value
                       for r in independent])
    c = float(np.dot(ds, ratios) / np.dot(ds, ds))
    residual = float(np.sum((ratios - c * ds) ** 2) / np.sum(ratios ** 2))
    return c, residual, ratios


def headline_values() -> CheckResult:
    """The d = 5 coherent headline number at alpha = 2, as the optimum over b and as
    Tr(F^-1) at b = b_star (the NOON pair is noon_pair_exact)."""
    target = HEADLINE_SCALE / 100.0
    optimum = bounds.minimize_bound_over_b(5, 1, 4.0)
    at_b_star = bounds.qcrb_ecs_at_b(5, 1, 4.0, optimum.params["b_star"])
    return _check("bounds.headline_values",
                  _worst(abs(r.value - target) / target for r in (optimum, at_b_star)))


def noon_pair_exact() -> CheckResult:
    """The NOON pair at d = 5, N = 10 to the last bit: scale/400 and a factor N^2 apart."""
    linear = bounds.qcrb_noon_linear(5, 10.0).value
    nonlinear = bounds.qcrb_noon_nonlinear(5, 10.0).value
    disc = _worst((abs(linear - HEADLINE_SCALE / 400.0) / (HEADLINE_SCALE / 400.0),
                   abs(nonlinear - linear / 100.0) / (linear / 100.0)))
    return _check("bounds.noon_pair_exact", disc)


def independent_match() -> CheckResult:
    """The independent coherent baseline via alpha_sq and via its total photons agree: one
    body, so this reads the root solver's alpha_sq -> n_tot -> alpha_sq round trip."""
    def rel(d: int, alpha_sq: float) -> float:
        direct = bounds.qcrb_independent_ecs(d, alpha_sq).value
        n_tot = bounds.independent_ecs_total_photons(d, alpha_sq)
        return abs(direct - bounds.independent_ecs_vs_ntot(d, n_tot).value) / direct

    worst = _worst(itertools.starmap(rel, ((1, 1.0), (2, 4.0), (3, 36.0), (5, 9.0), (10, 0.5))))
    return _check("bounds.independent_match", worst)


def independent_vs_oracle() -> CheckResult:
    """d / F against each independent baseline, F the oracle's information on the one
    phase of a two-mode probe: N (|alpha, 0> + |0, alpha>) with b = c = N =
    1/sqrt(2 (1 + e^{-alpha_sq})), or (|N, 0> + |0, N>)/sqrt 2 with n_tot = d N
    (Humphreys et al., PRL 111, 070403 (2013)); the worst relative error."""
    def rels(probe, bound):
        info = oracle.numerical_qfim(probe)[0, 0]
        return [abs(d / info / bound(d) - 1.0) for d in (1, 5, 64)]

    ecs = (rels(states.ecs_params(1, mu, 1.0 / math.sqrt(2.0 * (1.0 + math.exp(-mu)))),
                lambda d: bounds.qcrb_independent_ecs(d, mu).value)
           for mu in (1e-6, 1e-4, 1e-2, 1.0, 1e2, 1e4))
    noon = (rels(states.noon_params(1, n, b=math.sqrt(0.5)),
                 lambda d: bounds.qcrb_independent_noon(d, float(d * n)).value)
            for n in (1, 2, 5, 20))
    return _check("bounds.independent_vs_oracle", _worst(itertools.chain(*ecs, *noon)))


def independent_below_noon_baseline() -> CheckResult:
    """Largest ratio of the independent coherent to the independent NOON baseline (< 1)."""
    worst = _worst(bounds.independent_ecs_vs_ntot(d, float(n)).value
                   / bounds.qcrb_independent_noon(d, float(n)).value
                   for d in (2, 5, 10) for n in _ntot_grid(0.5))
    return _check("bounds.independent_below_noon_baseline", worst, strict=True)


def crossing_bracket(n_tot: np.ndarray) -> CheckResult:
    """The d = 5 coherent m = 1 bound crosses the NOON m = 2 bound once, at the golden ratio.

    The discrepancy is the golden ratio's distance from the last double below the
    crossing, bisected in the one grid cell where the sign flips; infinite unless
    the coherent bound starts below and flips exactly once."""
    def below(x):
        return bounds.ecs_linear_value(5, x) < bounds.noon_nonlinear_value(5, x)

    side = below(n_tot)
    flips = np.flatnonzero(side[:-1] != side[1:])
    disc = math.inf
    if len(flips) == 1 and side[0]:
        lo, hi = float(n_tot[flips[0]]), float(n_tot[flips[0] + 1])
        while (mid := 0.5 * (lo + hi)) not in (lo, hi):
            lo, hi = (mid, hi) if below(mid) else (lo, mid)
        disc = abs(lo - GOLDEN)
    return _check("bounds.crossing_bracket", disc)


def _ecs_over_noon(n_tot: np.ndarray) -> np.ndarray:
    return bounds.ecs_linear_value(5, n_tot) / bounds.noon_linear_value(5, n_tot)


def ecs_below_noon(n_tot: np.ndarray) -> CheckResult:
    """Largest ratio of the d = 5 coherent to the NOON linear bound over the grid (< 1)."""
    worst = float(_ecs_over_noon(n_tot).max())
    return _check("bounds.ecs_below_noon", worst, strict=True)


def large_ntot_ratio(n_tot: np.ndarray) -> CheckResult:
    """At n_tot >= 50 the coherent/NOON linear ratio stays within tolerance below 1.

    The discrepancy is 1 - min(ratio), or infinite if any ratio exceeds 1.
    """
    tail = _ecs_over_noon(n_tot[n_tot >= 50.0])
    disc = math.inf if np.any(tail > 1.0) else 1.0 - float(tail.min())
    return _check("bounds.large_ntot_ratio", disc)


def zzb_ordering() -> CheckResult:
    """Largest coherent/NOON Ziv-Zakai ratio at d = 5 (< 1); infinite unless the
    first branch is the maximum at d = 50."""
    worst = _worst(bounds.zzb_ecs(5, alpha_sq).value / bounds.zzb_noon(5, alpha_sq).value
                   for alpha_sq in (4.0, 9.0, 16.0))
    big = bounds.zzb_noon(50, 10.0)
    if big.value != big.params["branch_first"]:
        worst = math.inf
    return _check("bounds.zzb_ordering", worst, strict=True)


def region_claim() -> CheckResult:
    """Count of cells with alpha in [2.5, 4], d <= 10 that are not interior."""
    misclassified = sum(not states.domain_geometry(d, 1, a * a).interior
                        for d in range(1, 11) for a in np.linspace(2.5, 4.0, 61).tolist())
    return _check("bounds.region_claim", float(misclassified))


def gamma_large_alpha() -> CheckResult:
    """The domain cap Gamma reaches 1/d at alpha_sq = 49."""
    worst = _worst(abs(states.b_domain_limit(d, 49.0) - 1.0 / d) for d in range(1, 11))
    return _check("bounds.gamma_large_alpha", worst)


def b_star_approach() -> CheckResult:
    """b_star = sqrt(1 + 1/alpha_sq) / sqrt(d + sqrt d) for m = 1 at alpha_sq = 49."""
    alpha_sq = B_STAR_APPROACH_ALPHA_SQ
    worst = _worst(abs(states.b_star(d, 1, alpha_sq)
                       - math.sqrt(1.0 + 1.0 / alpha_sq) / math.sqrt(d + math.sqrt(d)))
                   for d in range(1, 11))
    return _check("bounds.b_star_approach", worst)


def b_star_limit() -> CheckResult:
    """b_star reaches the NOON weight 1/sqrt(d + sqrt d) at alpha_sq = 1e6."""
    worst = _worst(abs(states.b_star(d, 1, B_STAR_LIMIT_ALPHA_SQ)
                       - 1.0 / math.sqrt(d + math.sqrt(d))) for d in range(1, 11))
    return _check("bounds.b_star_limit", worst)


def o_of_d_fit() -> CheckResult:
    """Relative residual of the O(d) advantage fit."""
    _, residual, _ = o_of_d_advantage_fit()
    return _check("bounds.o_of_d_fit", residual)


def suite_bounds(rng: np.random.Generator) -> list[CheckResult]:
    n_tot = _ntot_grid(0.01)
    return [headline_values(), noon_pair_exact(), independent_match(), independent_vs_oracle(),
            independent_below_noon_baseline(), crossing_bracket(n_tot), ecs_below_noon(n_tot),
            large_ntot_ratio(n_tot), zzb_ordering(), region_claim(), gamma_large_alpha(),
            b_star_approach(), b_star_limit(), o_of_d_fit()]


_SUITES = {name: globals()[f"suite_{name}"] for name in SUITE_NAMES}


def run_suite(name: str, seed: int = 0) -> list[CheckResult]:
    """Run one suite (or 'all'); deterministic for a given seed."""
    if name != "all" and name not in _SUITES:
        raise ValueError(f"unknown suite {name!r}; choose from {SUITE_NAMES + ('all',)}")
    suites = SUITE_NAMES if name == "all" else (name,)
    return [r for suite in suites for r in _SUITES[suite](np.random.default_rng(seed))]
