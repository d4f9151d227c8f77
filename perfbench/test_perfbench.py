"""Tests of the benchmark itself.

Run from the repository root with ``python3 -m pytest perfbench``.
"""

from __future__ import annotations

import itertools
import json
import math
import os
import re
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
for path in (HERE, os.path.join(ROOT, "src")):
    if path not in sys.path:
        sys.path.insert(0, path)

import mix  # noqa: E402
import refs  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
from phasebounds import bounds, cli, qfim, states  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def test_metric_names_and_units_match_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    declared = {"end_to_end": [(m["name"], m["unit"]) for m in spec["end_to_end"]],
                "per_layer": [(m["name"], m["unit"]) for m in spec["per_layer"]]}
    assert declared["end_to_end"] == list(run.END_TO_END)
    assert declared["per_layer"] == list(run.PER_LAYER)
    names = [n for group in declared.values() for n, _ in group]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name), name
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)


@pytest.mark.parametrize("d,mu", [(1, 0.01), (2, 0.3), (5, 4.0), (17, 1.0), (64, 30.0)])
def test_closed_forms_match_package(d, mu):
    assert refs.ecs_linear(d, mu) == pytest.approx(bounds.ecs_linear_value(d, mu), rel=1e-12)
    assert refs.ecs_nonlinear(d, mu) == pytest.approx(bounds.ecs_nonlinear_value(d, mu),
                                                      rel=1e-12)
    assert refs.gamma_cap(d, mu) == pytest.approx(states.b_domain_limit(d, mu), rel=1e-12)
    for m in (1, 2):
        geo = refs.geometry(d, m, mu)
        assert geo["b_star"] == pytest.approx(states.b_star(d, m, mu), rel=1e-12)
        assert geo["interior"] == states.domain_geometry(d, m, mu).interior
        value, regime = refs.ecs_optimal(d, m, mu)
        report = bounds.minimize_bound_over_b(d, m, mu)
        assert value == pytest.approx(report.value, rel=1e-12)
        assert regime == report.regime.value
        b = 0.5 * min(math.sqrt(geo["gamma"]), math.sqrt(geo["g"] / d))
        p = states.ecs_params(d, mu, b, m)
        assert refs.trace_bound(d, m, mu, b * b) == pytest.approx(
            qfim.trace_inverse_bound(p), rel=1e-12)
        gamma, omega = refs.ecs_qfim_scalars(d, m, mu, b)
        f = qfim.ecs_qfim(p)
        assert (gamma, omega) == pytest.approx((f.gamma, f.omega), rel=1e-12)
    n_tot = 2.0 * d * mu
    assert refs.independent_ecs_ntot(d, n_tot)[0] == pytest.approx(
        bounds.independent_ecs_vs_ntot(d, n_tot).value, rel=1e-12)
    assert refs.independent_ecs_alpha(d, mu)[0] == pytest.approx(
        bounds.qcrb_independent_ecs(d, mu).value, rel=1e-12)
    assert max(refs.zzb_branches(d, (mu + 1.0) ** 2)) == pytest.approx(
        bounds.zzb_ecs(d, mu).value, rel=1e-12)


def test_linspace_matches_numpy_bit_for_bit():
    import numpy as np

    for start, stop, num in ((0.01, 4.0, 400), (1.0, 437.25, 20000), (3, 172, 100)):
        assert refs.linspace(start, stop, num) == np.linspace(start, stop, num).tolist()


def test_every_bounds_op_in_the_mix_checks_clean(capsys):
    ops = [op for op, _ in zip(mix.oneshot_ops(7), range(2 * len(mix.ONESHOT_CYCLE)))]
    assert {op["family"] for op in ops} == set(mix.FAMILIES)
    for op in ops:
        assert cli.main(mix.bounds_argv(op)) == 0
        got = run.parse_bound_output(op["format"], capsys.readouterr().out.encode())
        assert refs.check_bound(op, got) == [], mix.bounds_argv(op)


def _small_region(tmp_path, fmt):
    op = {"kind": "region", "m": 2, "format": fmt, "d_min": 1, "d_max": 30, "d_steps": 7,
          "alpha_min": 0.01, "alpha_max": 3.5, "alpha_steps": 50, "rows": 350,
          "sample_seed": 11}
    out = str(tmp_path / f"region.{fmt}")
    assert cli.main(mix.sweep_argv(op, out)) == 0
    return op, out


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_corrupted_sweep_row_counts_as_failed(tmp_path, fmt):
    op, out = _small_region(tmp_path, fmt)
    errs, rows = run.check_sweep_output(op, out)
    assert errs == [] and rows == 350
    assert run.failed_ops([{"wall_s": 1.0, "errors": errs}]) == 0
    with open(out) as fh:
        text = fh.read()
    if fmt == "csv":
        lines = text.split("\n")
        cells = lines[1].split(",")  # row 0 is always sampled
        cells[3] = repr(float(cells[3]) * (1.0 + 1e-9))
        lines[1] = ",".join(cells)
        text = "\n".join(lines)
    else:
        data = json.loads(text)
        data[0]["b_star"] *= 1.0 + 1e-9
        text = json.dumps(data)
    with open(out, "w") as fh:
        fh.write(text)
    errs, _ = run.check_sweep_output(op, out)
    assert errs and "b_star" in errs[0]
    assert run.failed_ops([{"wall_s": 1.0, "errors": errs}]) == 1


def test_corrupted_bound_value_is_an_error():
    op = {"family": "ecs-optimal", "d": 5, "m": 2, "alpha": 1.0, "format": "json"}
    report = bounds.minimize_bound_over_b(5, 2, 1.0)
    got = cli._report_payload(report)
    assert refs.check_bound(op, got) == []
    got["value"] *= 1.0 + 1e-10
    assert any("value" in e for e in refs.check_bound(op, got))


def test_curves_rows_check_clean(tmp_path):
    op = {"kind": "curves", "format": "csv", "d": 9, "ntot_min": 1.0, "ntot_max": 60.5,
          "points": 500, "rows": 500, "sample_seed": 3}
    out = str(tmp_path / "curves.csv")
    assert cli.main(mix.sweep_argv(op, out)) == 0
    assert run.check_sweep_output(op, out) == ([], 500)


def test_tail_has_ten_samples_beyond():
    values = [float(i) for i in range(100)]
    value, pct, n = run.tail(values)
    assert (value, pct, n) == (89.0, 90.0, 100)
    assert sum(v > value for v in values) == 10


def test_tracer_attributes_pool_work_to_layers(tmp_path):
    t = tracer.Tracer()
    assert t.install() > 50
    try:
        _small_region(tmp_path, "csv")
    finally:
        t.uninstall()
    summary = t.summary()
    fn = summary["functions"]
    assert fn["bounds.region_classify"]["calls"] == 350
    assert fn["states.domain_geometry"]["calls"] == 350
    assert fn["cli.main"]["calls"] == 1
    # pool-thread spans are children of cli.main, so its self time excludes them
    assert fn["cli.main"]["self_ns"] < fn["cli.main"]["incl_ns"]
    for layer in summary["layers"].values():
        assert layer["self_ns"] >= 0


def test_parse_importtime():
    sample = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 | site",
        "import time:        50 |         50 |       numpy.core",
        "import time:        30 |         80 |     numpy",
        "import time:        20 |         20 |       inspect",
        "import time:        40 |         60 |     scipy.stats",
        "import time:        10 |        150 |   phasebounds.bounds",
        "import time:         5 |        155 | phasebounds",
    ])
    got = tracer.parse_importtime(sample)
    assert got["numpy_s"] == pytest.approx(80e-6)
    assert got["scipy_s"] == pytest.approx(60e-6)
    assert got["phasebounds_s"] == pytest.approx(15e-6)
    assert got["total_s"] == pytest.approx(255e-6)
    assert got["modules"] == 7


def test_op_generation_terminates_and_covers_the_domain():
    for seed in range(300):
        ops = list(itertools.islice(mix.oneshot_ops(seed), len(mix.ONESHOT_CYCLE)))
        assert {op["family"] for op in ops} == set(mix.FAMILIES)
        assert all(1 <= op["d"] <= mix.D_MAX_ONESHOT for op in ops)
    ds = {op["d"] for seed in range(30) for op in itertools.islice(mix.oneshot_ops(seed), 26)}
    assert {1, 64} <= ds


def test_known_defect_inputs_are_valid_cap_inputs():
    for op in mix.known_defect_ops(3, 20):
        geo = refs.geometry(op["d"], op["m"], op["alpha"] ** 2)
        assert op["b"] ** 2 <= geo["gamma"]
        assert op["b"] ** 2 * op["d"] < geo["g"]
        assert op["alpha"] < mix.CAP_SAFE_ALPHA
