"""The `oracle` workload's single process: import once, then check probes in a loop.

Usage (from the repository root, with PYTHONPATH=src)::

    python3 perfbench/oracle_worker.py SEED SECONDS TRACE OUT.json

Each op builds one probe and runs the truncated-Fock oracle on it
(`numerical_qfim`, `qfim_via_state_derivatives` and one
`commutator_expectation`; `dense_qfim` for dense probes) together with the
package's analytic matrix.  Every result is compared with the closed-form
gamma (1 + omega J) written out in `refs`, using the package's own
`verify.DEFAULT_TOLERANCES`.  With TRACE=1 each op runs plain and then
again under the `tracer` wrappers.
"""

from __future__ import annotations

import sys
import time

T_START = time.clock_gettime_ns(time.CLOCK_MONOTONIC)

import phasebounds.cli  # noqa: E402,F401  the set-up being timed

T_READY = time.clock_gettime_ns(time.CLOCK_MONOTONIC)

import json  # noqa: E402

import numpy as np  # noqa: E402

import mix  # noqa: E402
import refs  # noqa: E402
from phasebounds import oracle, qfim, states, verify  # noqa: E402

TOL = verify.DEFAULT_TOLERANCES


def _structured(d: int, gamma: float, omega: float) -> np.ndarray:
    out = np.full((d, d), gamma * omega)
    np.fill_diagonal(out, gamma * (1.0 + omega))
    return out


def _rel(a: np.ndarray, ref: np.ndarray) -> float:
    return float(np.linalg.norm(a - ref) / np.linalg.norm(ref))


def run_op(op: dict) -> tuple[float, dict]:
    """Time one probe check; returns (seconds, outputs to check)."""
    t0 = time.perf_counter()
    if op["kind"] == "noon":
        p = states.noon_params(op["d"], op["n"], m=op["m"])
    else:
        p = states.ecs_params(op["d"], op["alpha_sq"], op["b"], op["m"])
    out = {"p": p}
    if op["kind"] == "dense":
        out["dense"] = oracle.dense_qfim(p, op["cutoff"])
    else:
        out["numerical"] = oracle.numerical_qfim(p, tail_tol=mix.ORACLE_TAIL_TOL)
        out["fd"] = oracle.qfim_via_state_derivatives(p, tail_tol=mix.ORACLE_TAIL_TOL)
        out["commutator"] = oracle.commutator_expectation(p, *op["pair"],
                                                          tail_tol=mix.ORACLE_TAIL_TOL)
    if op["kind"] == "noon":
        out["analytic"] = qfim.to_dense(qfim.noon_qfim(p))
    else:
        out["analytic"] = qfim.to_dense(qfim.ecs_qfim(p))
    return time.perf_counter() - t0, out


def check_op(op: dict, out: dict) -> list[str]:
    p = out["p"]
    if op["kind"] == "noon":
        gamma, omega = refs.noon_qfim_scalars(op["n"], op["m"], p.b)
    else:
        gamma, omega = refs.ecs_qfim_scalars(op["d"], op["m"], op["alpha_sq"], p.b)
    ref = _structured(op["d"], gamma, omega)
    checks = [("analytic", _rel(out["analytic"], ref), refs.REL_TOL)]
    if "dense" in out:
        checks.append(("dense", _rel(out["dense"], ref), TOL["qfim.oracle_vs_analytic"]))
    else:
        checks += [("numerical", _rel(out["numerical"], ref), TOL["qfim.oracle_vs_analytic"]),
                   ("fd", _rel(out["fd"], ref), TOL["qfim.fd_vs_analytic"]),
                   ("commutator", abs(out["commutator"]), TOL["qfim.commutators"])]
    return [f"{name}: discrepancy {disc:.3e} > {tol:g}"
            for name, disc, tol in checks if not disc <= tol]


def one(op: dict) -> dict:
    try:
        wall, out = run_op(op)
    except Exception as exc:  # an op that raises is a failed op, not a crash
        return {"kind": op["kind"], "d": op["d"], "wall_s": None,
                "errors": [f"{type(exc).__name__}: {exc}"]}
    return {"kind": op["kind"], "d": op["d"], "wall_s": wall, "errors": check_op(op, out)}


def main(argv: list[str]) -> int:
    seed, seconds, trace, out_path = int(argv[0]), float(argv[1]), argv[2] == "1", argv[3]
    deadline = T_READY + int(seconds * 1e9)
    if trace:
        import tracer

        spans = tracer.Tracer()
    records = []
    for op in mix.oracle_ops(seed):
        if time.clock_gettime_ns(time.CLOCK_MONOTONIC) >= deadline:
            break
        rec = one(op)
        if trace:
            # plain and traced back to back, so machine drift cancels in the overhead
            spans.install()
            try:
                traced = one(op)
            finally:
                spans.uninstall()
            rec["traced_wall_s"] = traced["wall_s"]
            rec["errors"] += [f"traced: {e}" for e in traced["errors"]]
        records.append(rec)
    result = {"ready_ns": T_READY, "start_ns": T_START, "records": records}
    if trace:
        result["trace"] = spans.summary()
    with open(out_path, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
