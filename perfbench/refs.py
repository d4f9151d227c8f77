"""Closed-form references and output checks, written out independently.

Nothing here imports phasebounds: a rewrite of the package's kernel must
agree with these formulas, not with itself.  Only the standard library is
used, so the benchmark's parent process stays small.

Notation follows the package: d sensing modes, mu = alpha^2, generator
order m in {1, 2}, f(k) the k-th Poisson raw moment, g = f(2m)/f(m)^2,
Gamma = 1/(u - v^2) the cap on b^2 and b_star^2 = g/(sqrt d + d).
"""

from __future__ import annotations

import math
import sys

# The package's pinned relative tolerance for closed-form values
# (verify.DEFAULT_TOLERANCES["bounds.headline_values"]).
REL_TOL = 1e-12
# Regime flags are compared only where the margin |b_star^2 - Gamma| / Gamma
# is at least this large; below it either answer is within rounding.
FLAG_MARGIN = 1e-12
# First-branch constant of the Ziv-Zakai bounds (known only numerically).
ZZB_LAMBDA = 0.7246
EPS = sys.float_info.epsilon


def touchard(k: int, mu: float) -> float:
    """Raw Poisson moment f(k) for the orders the bounds use (k = 1, 2, 4)."""
    if k == 1:
        return mu
    if k == 2:
        return mu * (1.0 + mu)
    if k == 4:
        return mu * (1.0 + mu * (7.0 + mu * (6.0 + mu)))
    raise ValueError(f"moment order {k} is not used by the bounds")


def headline(d: int) -> float:
    return d * (math.sqrt(d) + 1.0) ** 2 / 4.0


def gamma_cap(d: int, mu: float) -> float:
    """Gamma = 1 / (d (1 - e^-mu)(1 + d e^-mu)), the factored u - v^2."""
    return 1.0 / (d * -math.expm1(-mu) * (1.0 + d * math.exp(-mu)))


def g_ratio(m: int, mu: float) -> float:
    f_m = touchard(m, mu)
    return touchard(2 * m, mu) / (f_m * f_m)


def geometry(d: int, m: int, mu: float) -> dict:
    """Cap, optimizer, regime and the regime margin at (d, m, mu)."""
    gam = gamma_cap(d, mu)
    g = g_ratio(m, mu)
    bs_sq = g / (math.sqrt(d) + d)
    return {"gamma": gam, "g": g, "b_star": math.sqrt(bs_sq),
            "interior": bs_sq <= gam, "margin": abs(bs_sq - gam) / gam}


def ecs_linear(d: int, mu: float) -> float:
    return headline(d) / (1.0 + mu) ** 2


def ecs_nonlinear(d: int, mu: float) -> float:
    return headline(d) * ((1.0 + mu) / (((mu + 6.0) * mu + 7.0) * mu + 1.0)) ** 2


def noon_linear(d: int, n: float) -> float:
    return headline(d) / n ** 2


def noon_nonlinear(d: int, n: float) -> float:
    return headline(d) / n ** 4


def trace_bound(d: int, m: int, mu: float, b_sq: float) -> float:
    """Tr F^-1 = d / (4 f(2m)) (1/b^2 + 1/(g - b^2 d)), for 0 < b^2 < g/d."""
    return d / (4.0 * touchard(2 * m, mu)) * (1.0 / b_sq + 1.0 / (g_ratio(m, mu) - b_sq * d))


def ecs_optimal(d: int, m: int, mu: float) -> tuple[float, str]:
    """Minimum over b: headline form inside the cap, trace form at b^2 = Gamma."""
    geo = geometry(d, m, mu)
    if geo["interior"]:
        return headline(d) * (touchard(m, mu) / touchard(2 * m, mu)) ** 2, "interior"
    return trace_bound(d, m, mu, geo["gamma"]), "clamped"


def zzb_branches(d: int, photon_sq: float) -> tuple[float, float]:
    s = d + math.sqrt(d)
    core = d * s * s / photon_sq
    return core / (80.0 * ZZB_LAMBDA ** 2), (math.pi ** 2 / 16.0 - 0.5) * core / (s - 1.0)


def independent_ecs_alpha(d: int, mu: float) -> tuple[float, float]:
    """(bound, n_tot) for d separate two-mode coherent probes at intensity mu."""
    n_sq = 1.0 / (2.0 * (1.0 + math.exp(-mu)))
    single = 1.0 / (4.0 * n_sq * mu * (1.0 + mu * (1.0 - n_sq)))
    return d * single, 2.0 * d * n_sq * mu


def independent_ecs_ntot(d: int, n_tot: float) -> tuple[float, float]:
    """(bound, mu) with mu solving d mu / (1 + e^-mu) = n_tot by bisection.

    The left side is strictly increasing and lies between d mu / 2 and
    d mu, which brackets the root; bisection runs until the bracket stops
    shrinking in double precision.
    """
    lo, hi = n_tot / (2.0 * d), 2.0 * n_tot / d + 1.0
    while True:
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break
        if d * mid / (1.0 + math.exp(-mid)) < n_tot:
            lo = mid
        else:
            hi = mid
    mu = 0.5 * (lo + hi)
    inv_n_sq = 2.0 * (1.0 + math.exp(-mu))
    return d ** 3 / (n_tot * (2.0 * d + n_tot * (inv_n_sq - 1.0))), mu


# ------------------------------------------------------------------ checks

def close(got, want: float, rel: float = REL_TOL, abs_tol: float = 0.0) -> bool:
    try:
        got = float(got)
    except (TypeError, ValueError):
        return False
    return abs(got - want) <= rel * abs(want) + abs_tol


def _flag_ok(got_interior: bool, geo: dict) -> bool:
    return geo["margin"] < FLAG_MARGIN or got_interior == geo["interior"]


def expected_bound(op: dict) -> dict:
    """Expected value, regime and params of one `bounds` op, as floats/strings."""
    fam, d = op["family"], op["d"]
    m = op.get("m", 1)
    out = {"kind": fam, "regime": "n/a", "params": {"d": d}}
    p = out["params"]
    if "alpha" in op:
        mu = op["alpha"] * op["alpha"]
        p["alpha_sq"] = mu
    if fam in ("ecs-linear", "ecs-nonlinear"):
        m = 1 if fam == "ecs-linear" else 2
        geo = geometry(d, m, mu)
        out["value"] = ecs_linear(d, mu) if m == 1 else ecs_nonlinear(d, mu)
        out["regime"] = "interior"
        out["geo"] = geo
        p.update(m=m, b_star=geo["b_star"], gamma_cap=geo["gamma"],
                 b_sq_used=geo["b_star"] ** 2)
    elif fam == "ecs-optimal":
        geo = geometry(d, m, mu)
        out["value"], out["regime"] = ecs_optimal(d, m, mu)
        out["geo"] = geo
        p.update(m=m, b_star=geo["b_star"], gamma_cap=geo["gamma"], g=geo["g"],
                 b_sq_used=geo["b_star"] ** 2 if out["regime"] == "interior" else geo["gamma"])
        out["kind"] = {1: "ecs-linear", 2: "ecs-nonlinear"}[m]
    elif fam == "ecs-at-b":
        out["value"] = trace_bound(d, m, mu, op["b"] * op["b"])
        p.update(m=m, b=op["b"])
    elif fam in ("noon-linear", "noon-nonlinear"):
        n = op["N"]
        out["value"] = noon_linear(d, n) if fam == "noon-linear" else noon_nonlinear(d, n)
        out["regime"] = "interior"
        p.update(m=1 if fam == "noon-linear" else 2, photon_number=n)
    elif fam == "independent-ecs":
        if "n_tot" in op:
            out["value"], p["alpha_sq"] = independent_ecs_ntot(d, op["n_tot"])
            p["n_tot"] = op["n_tot"]
        else:
            out["value"], p["n_tot"] = independent_ecs_alpha(d, mu)
    elif fam == "independent-noon":
        out["value"] = d ** 3 / op["n_tot"] ** 2
        p["n_tot"] = op["n_tot"]
    elif fam in ("zzb-ecs", "zzb-noon"):
        photon_sq = (mu + 1.0) ** 2 if fam == "zzb-ecs" else op["N"] ** 2
        first, second = zzb_branches(d, photon_sq)
        out["value"] = max(first, second)
        p.update(lam=ZZB_LAMBDA, branch_first=first, branch_second=second)
        if fam == "zzb-noon":
            p["photon_number"] = op["N"]
    else:
        raise ValueError(f"unknown family {fam!r}")
    return out


def check_bound(op: dict, got: dict) -> list[str]:
    """Compare one parsed `bounds` output with the closed form; [] when correct."""
    want = expected_bound(op)
    errs = []
    if got.get("kind") != want["kind"]:
        errs.append(f"kind {got.get('kind')!r} != {want['kind']!r}")
    regime = got.get("regime")
    if "geo" in want:
        if regime not in ("interior", "clamped") or not _flag_ok(regime == "interior", want["geo"]):
            errs.append(f"regime {regime!r} != {want['regime']!r}")
        regime_flipped = regime != want["regime"]
    else:
        regime_flipped = False
        if regime != want["regime"]:
            errs.append(f"regime {regime!r} != {want['regime']!r}")
    if not regime_flipped and not close(got.get("value"), want["value"]):
        errs.append(f"value {got.get('value')!r} != {want['value']!r}")
    params = got.get("params", {})
    for key, value in want["params"].items():
        if regime_flipped and key == "b_sq_used":
            continue
        # brentq's absolute xtol is 1e-14
        abs_tol = 1e-14 if (op["family"] == "independent-ecs" and key == "alpha_sq") else 0.0
        if key not in params or not close(params[key], value, abs_tol=abs_tol):
            errs.append(f"params.{key} {params.get(key)!r} != {value!r}")
    return errs


def linspace(start: float, stop: float, num: int) -> list[float]:
    """The points numpy.linspace(start, stop, num) produces, in the same arithmetic."""
    if num == 1:
        return [float(start)]
    step = (stop - start) / (num - 1)
    out = [i * step + start for i in range(num)]
    out[-1] = float(stop)
    return out


REGION_HEADER = ("d", "alpha", "m", "b_star", "sqrt_gamma", "interior")
CURVES_HEADER = ("n_tot", "ecs_linear", "noon_linear", "ecs_nonlinear",
                 "noon_nonlinear", "ecs_mean_photons_exact")


def region_axes(op: dict) -> tuple[list[int], list[float]]:
    ds = [int(round(x)) for x in linspace(op["d_min"], op["d_max"], op["d_steps"])]
    return ds, linspace(op["alpha_min"], op["alpha_max"], op["alpha_steps"])


def check_region_row(op: dict, index: int, row: dict) -> list[str]:
    ds, alphas = region_axes(op)
    d = ds[index // len(alphas)]
    alpha = alphas[index % len(alphas)]
    m = op["m"]
    geo = geometry(d, m, alpha * alpha)
    errs = []
    if int(row["d"]) != d or float(row["alpha"]) != alpha or int(row["m"]) != m:
        errs.append(f"row {index}: axes {row['d']},{row['alpha']},{row['m']} != {d},{alpha!r},{m}")
    if not close(row["b_star"], geo["b_star"]):
        errs.append(f"row {index}: b_star {row['b_star']!r} != {geo['b_star']!r}")
    if not close(row["sqrt_gamma"], math.sqrt(geo["gamma"])):
        errs.append(f"row {index}: sqrt_gamma {row['sqrt_gamma']!r} != {math.sqrt(geo['gamma'])!r}")
    interior = row["interior"] in (True, "1")
    if row["interior"] not in (True, False, "1", "0") or not _flag_ok(interior, geo):
        errs.append(f"row {index}: interior {row['interior']!r} != {geo['interior']}")
    return errs


def _mean_photons(d: int, mu: float) -> tuple[float, float]:
    """Mean photon number of the optimal m=1 coherent probe and its rounding allowance.

    c solves c^2 + 2 b v c + b^2 u - 1 = 0; its discriminant 1 - b^2 (u - v^2)
    vanishes at the cap, where c is a double root and any evaluation in
    double precision is uncertain by about sqrt(eps).  The allowance carries
    that conditioning through to the mean.
    """
    geo = geometry(d, 1, mu)
    b = min(geo["b_star"], math.sqrt(geo["gamma"]))
    v = d * math.exp(-mu)
    disc = max(1.0 - b * b / geo["gamma"], 0.0)
    c = -b * v + math.sqrt(disc)
    slack = 8.0 * EPS
    dc = math.sqrt(disc + slack) - math.sqrt(max(disc - slack, 0.0))
    mean = mu * (d * b * b + c * c)
    return mean, mu * (2.0 * abs(c) * dc + dc * dc)


def check_curves_row(op: dict, index: int, row: dict) -> list[str]:
    n = linspace(op["ntot_min"], op["ntot_max"], op["points"])[index]
    d = op["d"]
    errs = []
    if float(row["n_tot"]) != n:
        errs.append(f"row {index}: n_tot {row['n_tot']!r} != {n!r}")
    for key, want in (("ecs_linear", ecs_linear(d, n)), ("noon_linear", noon_linear(d, n)),
                      ("ecs_nonlinear", ecs_nonlinear(d, n)),
                      ("noon_nonlinear", noon_nonlinear(d, n))):
        if not close(row[key], want):
            errs.append(f"row {index}: {key} {row[key]!r} != {want!r}")
    mean, allowance = _mean_photons(d, n)
    if not close(row["ecs_mean_photons_exact"], mean, abs_tol=allowance):
        errs.append(f"row {index}: ecs_mean_photons_exact {row['ecs_mean_photons_exact']!r} "
                    f"!= {mean!r} (+-{allowance:.1e})")
    return errs


def ecs_qfim_scalars(d: int, m: int, mu: float, b: float) -> tuple[float, float]:
    """(gamma, omega) of F = gamma (1 + omega J) for the coherent probe."""
    f_m, f_2m = touchard(m, mu), touchard(2 * m, mu)
    return 4.0 * b * b * f_2m, -b * b * f_m * f_m / f_2m


def noon_qfim_scalars(n: int, m: int, b: float) -> tuple[float, float]:
    return 4.0 * b * b * float(n) ** (2 * m), -b * b
