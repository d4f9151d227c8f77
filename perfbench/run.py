#!/usr/bin/env python3
"""Benchmark for the phasebounds calculator.

Usage, from the repository root::

    python3 perfbench/run.py --workload oneshot|sweep|oracle|all --seed N \\
        --seconds S --trace 0|1

Each workload is a closed loop with one client: the next op starts when the
previous one has finished and its output has been checked.  The program is
run from ``src`` (``PYTHONPATH=src``), as the package is not installed.

- ``oneshot``: each op is a fresh ``python -m phasebounds.cli bounds ...``.
- ``sweep``: each op is a fresh ``region`` or ``curves`` process writing
  about 10^5 (region) or 2*10^4 (curves) rows to a file.
- ``oracle``: one process imports the package once, then checks probes
  against the closed-form information matrix.

With ``--trace 0`` the last line of standard output is a JSON object with
the gated end-to-end metrics (the ungated op times are printed above it);
with ``--trace 1`` it holds the per-layer metrics of a separate traced run
(see tracer.py).  Every op's output is checked against closed forms in
refs.py.  A result file with provenance and per-op records is written
under perfbench/out/.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import platform
import random
import signal
import statistics
import subprocess
import sys
import time
from importlib import metadata

import mix
import refs
import tracer

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(HERE, "out")
PY = sys.executable

WORKLOADS = ("oneshot", "sweep", "oracle")
SETUP_PROBES = 3
IMPORT_PROBES = 3
KNOWN_DEFECT_OPS = 2
SAMPLED_ROWS = 200
TAIL_BEYOND = 10
OP_TIMEOUT_S = 60.0
# every run must end within 180 s of its start
RUN_LIMIT_S = 170.0

# Gated end-to-end metrics (BENCHMARK.json): peak_rss_mb repeats within a
# tenth from run to run; setup_s is gated so that work moved into set-up shows.
END_TO_END = (("setup_s", "s"), ("peak_rss_mb", "MB"))
# Printed and written to the result file but not gated: op times follow the
# host's CPU speed, which drifts by up to 2x between runs, and failed_frac is
# 0 on two workloads.
REPORTED = (("op_p50_s", "s"), ("op_tail_s", "s"), ("ops_per_s", "1/s"),
            ("failed_frac", "1"))
PER_LAYER = (
    [("import.total_s", "s"), ("import.scipy_s", "s"), ("import.phasebounds_s", "s"),
     ("import.numpy_s", "s"), ("import.modules", "count"),
     ("cli.self_s", "s"), ("cli.ns_per_row", "ns"), ("cli.rows_out", "count"),
     ("cli.bytes_out", "bytes")]
    + [(f"{layer}.{what}", unit) for layer in ("bounds", "states", "moments")
       for what, unit in (("calls", "count"), ("self_s", "s"), ("ns_per_call", "ns"))]
    + [("qfim.calls", "count"), ("qfim.self_s", "s"),
       ("oracle.calls", "count"), ("oracle.self_s", "s"),
       ("oracle.inner_product_calls", "count"), ("oracle.term_pairs", "count"),
       ("oracle.bytes_computed", "bytes")]
    + [(f"oracle.probe_s.d{d}", "s") for d in mix.ORACLE_LADDER]
    + [("oracle.dense_s", "s"), ("oracle.minimal_cutoff_s", "s"),
       ("oracle.cutoff_max", "count"), ("oracle.tail_mass_max", "1"),
       ("trace.overhead_frac", "1")])

SETUP_PROBE = ("import time, phasebounds.cli; "
               "print(time.clock_gettime_ns(time.CLOCK_MONOTONIC))")


class BenchError(Exception):
    """The benchmark cannot produce a result (missing program, broken set-up)."""


class _Timeout(Exception):
    pass


def _on_alarm(signum, frame):
    raise _Timeout()


def _now_ns() -> int:
    return time.clock_gettime_ns(time.CLOCK_MONOTONIC)


class Runner:
    """Spawns and waits for children with a deadline; one child at a time."""

    def __init__(self, seed: int) -> None:
        self.deadline = _now_ns() + int(RUN_LIMIT_S * 1e9)
        self.seed = seed
        self.serial = 0
        path = os.environ.get("PYTHONPATH")
        self.env = dict(os.environ, PYTHONPATH=SRC + (os.pathsep + path if path else ""))
        self.env_bench = dict(self.env, PYTHONPATH=SRC + os.pathsep + HERE)

    def remaining_s(self) -> float:
        return (self.deadline - _now_ns()) / 1e9

    def path(self, suffix: str) -> str:
        self.serial += 1
        return os.path.join(WORK, f"s{self.seed}-{os.getpid()}-{self.serial}{suffix}")

    def run(self, argv: list[str], env: dict | None = None,
            timeout_s: float = OP_TIMEOUT_S) -> dict:
        """Run argv to completion; returns exit code, wall time, peak RSS and output."""
        timeout_s = min(timeout_s, self.remaining_s())
        if timeout_s <= 0:
            raise BenchError("run time limit reached")
        out_path, err_path = self.path(".stdout"), self.path(".stderr")
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            t0 = _now_ns()
            proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env or self.env, cwd=ROOT)
        status = usage = None
        previous = signal.signal(signal.SIGALRM, _on_alarm)
        signal.setitimer(signal.ITIMER_REAL, timeout_s)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except _Timeout:
            pass
        except BaseException:
            proc.kill()
            os.wait4(proc.pid, 0)
            raise
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        timed_out = status is None
        if timed_out:
            proc.kill()
            _, status, usage = os.wait4(proc.pid, 0)
        t1 = _now_ns()
        proc.returncode = os.waitstatus_to_exitcode(status)
        with open(out_path, "rb") as fh:
            stdout = fh.read()
        with open(err_path, "rb") as fh:
            stderr = fh.read().decode(errors="replace")
        os.unlink(out_path)
        os.unlink(err_path)
        return {"code": None if timed_out else proc.returncode, "t0": t0,
                "wall_s": (t1 - t0) / 1e9, "rss_mb": usage.ru_maxrss / 1024.0,
                "cpu_s": usage.ru_utime + usage.ru_stime,
                "stdout": stdout, "stderr": stderr}

    def cli(self, args: list[str], summary_path: str | None = None) -> dict:
        """One CLI op, plain or (with summary_path) under the tracer."""
        if summary_path is None:
            return self.run([PY, "-m", "phasebounds.cli", *args])
        child = self.run([PY, os.path.join(HERE, "tracer.py"), summary_path, "--", *args],
                         env=self.env_bench)
        try:
            with open(summary_path) as fh:
                child["trace"] = json.load(fh)
            os.unlink(summary_path)
        except FileNotFoundError:
            child["trace"] = None
        else:
            # the summary is the tracer's own reporting cost, not the program's
            child["wall_s"] -= child["trace"]["summary_ns"] / 1e9
        return child

    def setup_samples(self, count: int) -> list[float]:
        """Seconds from spawn until `import phasebounds.cli` has finished."""
        samples = []
        for _ in range(count):
            child = self.run([PY, "-c", SETUP_PROBE])
            if child["code"] != 0:
                raise BenchError("cannot import phasebounds.cli from src/: "
                                 + child["stderr"].strip()[-500:])
            samples.append((int(child["stdout"]) - child["t0"]) / 1e9)
        return samples

    def import_profile(self, count: int) -> dict:
        profiles = []
        for _ in range(count):
            child = self.run([PY, "-X", "importtime", "-c", "import phasebounds.cli"])
            if child["code"] != 0:
                raise BenchError("import phasebounds.cli failed under -X importtime")
            profiles.append(tracer.parse_importtime(child["stderr"]))
        return {key: statistics.median(p[key] for p in profiles) for key in profiles[0]}


# ------------------------------------------------------------------ checks

def parse_bound_output(fmt: str, stdout: bytes) -> dict:
    text = stdout.decode()
    if fmt == "json":
        return json.loads(text)
    rows = list(csv.DictReader(io.StringIO(text)))
    if len(rows) != 1:
        raise ValueError(f"expected one CSV row, got {len(rows)}")
    row = rows[0]
    return {"kind": row.pop("kind"), "regime": row.pop("regime"), "value": row.pop("value"),
            "params": row}


def check_bound_child(op: dict, child: dict) -> list[str]:
    if child["code"] != 0:
        return [f"exit {child['code']}: {child['stderr'].strip()[-300:]}"]
    try:
        got = parse_bound_output(op["format"], child["stdout"])
    except ValueError as exc:
        return [f"unparsable output: {exc}"]
    return refs.check_bound(op, got)


def read_sweep_rows(op: dict, path: str) -> tuple[int, dict[int, dict], list[str]]:
    """(row count, sampled rows by index, header problems) of one sweep output."""
    header = refs.REGION_HEADER if op["kind"] == "region" else refs.CURVES_HEADER
    with open(path) as fh:
        text = fh.read()
    errs = []
    if op["format"] == "csv":
        lines = text.split("\n")
        if lines[-1] == "":
            lines.pop()
        if tuple(lines[0].split(",")) != header:
            errs.append(f"header {lines[0]!r}")
        body = lines[1:]
        count = len(body)
        pick = _sample(op, count)
        rows = {i: dict(zip(header, body[i].split(","))) for i in pick}
    else:
        data = json.loads(text)
        count = len(data)
        pick = _sample(op, count)
        rows = {i: data[i] for i in pick}
        errs += [f"row {i}: keys {tuple(r)}" for i, r in rows.items() if tuple(r) != header]
    return count, rows, errs


def _sample(op: dict, count: int) -> list[int]:
    if count == 0:
        return []
    rng = random.Random(op["sample_seed"])
    return sorted({0, count - 1, *rng.sample(range(count), min(SAMPLED_ROWS, count))})


def check_sweep_output(op: dict, path: str) -> tuple[list[str], int]:
    try:
        count, rows, errs = read_sweep_rows(op, path)
    except (OSError, ValueError) as exc:
        return [f"unreadable output: {exc}"], 0
    if count != op["rows"]:
        errs.append(f"{count} rows, expected {op['rows']}")
        return errs, count
    check = refs.check_region_row if op["kind"] == "region" else refs.check_curves_row
    for i, row in rows.items():
        try:
            errs += check(op, i, row)
        except (KeyError, ValueError, TypeError) as exc:
            errs.append(f"row {i}: malformed ({exc!r})")
        if len(errs) > 5:
            break
    return errs, count


# --------------------------------------------------------------- workloads

def _timed_loop(seconds: float, ops, do_op) -> list[dict]:
    records = []
    start = _now_ns()
    for op in ops:
        if (_now_ns() - start) / 1e9 >= seconds:
            break
        records.append(do_op(op))
    return records


def oneshot(runner: Runner, seed: int, seconds: float, trace: bool) -> dict:
    def do_op(op):
        args = mix.bounds_argv(op)
        child = runner.cli(args)
        rec = {"argv": args, "wall_s": child["wall_s"], "cpu_s": child["cpu_s"],
               "rss_mb": child["rss_mb"],
               "errors": check_bound_child(op, child),
               "rows_out": 1, "bytes_out": len(child["stdout"])}
        if trace:
            traced = runner.cli(args, runner.path(".trace.json"))
            rec["traced_wall_s"] = traced["wall_s"]
            rec["trace"] = traced["trace"]
            rec["errors"] += [f"traced: {e}" for e in check_bound_child(op, traced)]
        return rec

    records = _timed_loop(seconds, mix.oneshot_ops(seed), do_op)
    defects = []
    for op in mix.known_defect_ops(seed, KNOWN_DEFECT_OPS):
        args = mix.bounds_argv(op)
        child = runner.cli(args)
        errs = check_bound_child(op, child)
        defects.append({"argv": args, "code": child["code"],
                        "reproduced": child["code"] == 2,
                        "wrong_output": child["code"] == 0 and bool(errs),
                        "message": child["stderr"].strip()[-300:], "errors": errs})
    return {"records": records, "known_defects": defects}


def sweep(runner: Runner, seed: int, seconds: float, trace: bool) -> dict:
    def one(op, summary_path=None):
        out_path = runner.path(".csv" if op["format"] == "csv" else ".json")
        args = mix.sweep_argv(op, out_path)
        child = runner.cli(args, summary_path)
        if child["code"] != 0:
            errs, rows = [f"exit {child['code']}: {child['stderr'].strip()[-300:]}"], 0
        else:
            errs, rows = check_sweep_output(op, out_path)
        size = os.path.getsize(out_path) if os.path.exists(out_path) else 0
        if os.path.exists(out_path):
            os.unlink(out_path)
        return child, errs, rows, size

    def do_op(op):
        child, errs, rows, size = one(op)
        rec = {"argv": mix.sweep_argv(op, "OUT"), "wall_s": child["wall_s"],
               "cpu_s": child["cpu_s"], "rss_mb": child["rss_mb"], "errors": errs,
               "rows_out": rows, "bytes_out": size}
        if trace:
            traced, terrs, _, _ = one(op, runner.path(".trace.json"))
            rec["traced_wall_s"] = traced["wall_s"]
            rec["trace"] = traced["trace"]
            rec["errors"] += [f"traced: {e}" for e in terrs]
        return rec

    return {"records": _timed_loop(seconds, mix.sweep_ops(seed), do_op),
            "sweep_threads": int(os.environ.get("PHASEBOUNDS_WORKERS") or os.cpu_count() or 1)}


def oracle(runner: Runner, seed: int, seconds: float, trace: bool) -> dict:
    out_path = runner.path(".oracle.json")
    child = runner.run([PY, os.path.join(HERE, "oracle_worker.py"), str(seed), str(seconds),
                        "1" if trace else "0", out_path],
                       env=runner.env_bench, timeout_s=seconds + OP_TIMEOUT_S)
    if child["code"] != 0:
        raise BenchError(f"oracle worker exited {child['code']}: {child['stderr'][-500:]}")
    with open(out_path) as fh:
        result = json.load(fh)
    os.unlink(out_path)
    records = result["records"]
    for rec in records:
        rec["rss_mb"] = child["rss_mb"]
    return {"records": records, "worker_setup_s": (result["ready_ns"] - child["t0"]) / 1e9,
            "trace": result.get("trace")}


# ----------------------------------------------------------------- metrics

def failed_ops(records: list[dict]) -> int:
    """Ops that did not finish or whose output failed a check."""
    return sum(1 for r in records if r["errors"] or r["wall_s"] is None)


def tail(values: list[float]) -> tuple[float, float, int]:
    """(value, percentile, n): the highest percentile with >= 10 samples beyond it.

    Uses nearest rank: sorted index n - 11 has exactly ten samples above it
    and is the (n - 10)/n percentile.  With ten or fewer samples no such
    percentile exists and the smallest sample is reported.
    """
    s = sorted(values)
    k = max(len(s) - TAIL_BEYOND - 1, 0)
    return s[k], 100.0 * (k + 1) / len(s), len(s)


def end_to_end(setup: list[float], records: list[dict]) -> tuple[dict, dict, dict]:
    """(gated metrics, reported metrics, details) of one untraced run."""
    walls = [r["wall_s"] for r in records if r["wall_s"] is not None]
    if not walls:
        raise BenchError("no op completed")
    value, pct, n = tail(walls)
    gated = {"setup_s": statistics.median(setup),
             "peak_rss_mb": max(r["rss_mb"] for r in records)}
    reported = {"op_p50_s": statistics.median(walls), "op_tail_s": value,
                "ops_per_s": len(walls) / sum(walls)}
    return gated, reported, {"op_tail_percentile": pct, "op_samples": n, "setup_samples": setup}


def per_layer(imports: dict, records: list[dict], oracle_trace: dict | None) -> dict:
    traced = [r for r in records if r.get("traced_wall_s") is not None]
    n = max(len(traced), 1)
    layers = {layer: {"calls": 0, "self_ns": 0} for layer in tracer.LAYERS}
    functions: dict[str, dict] = {}
    counters = {"oracle.term_pairs": 0, "oracle.bytes_computed": 0,
                "oracle.cutoff_max": 0, "oracle.tail_mass_max": 0.0}
    summaries = [oracle_trace] if oracle_trace else [r["trace"] for r in traced if r.get("trace")]
    for summary in summaries:
        for layer, v in summary["layers"].items():
            layers[layer]["calls"] += v["calls"]
            layers[layer]["self_ns"] += v["self_ns"]
        for name, v in summary["functions"].items():
            acc = functions.setdefault(name, {"calls": 0, "incl_ns": 0})
            acc["calls"] += v["calls"]
            acc["incl_ns"] += v["incl_ns"]
        for key, value in summary["counters"].items():
            counters[key] = (max(counters[key], value) if key.endswith("_max")
                             else counters[key] + value)
    rows = sum(r.get("rows_out", 0) for r in traced)
    m = {f"import.{k}": imports[k]
         for k in ("total_s", "scipy_s", "phasebounds_s", "numpy_s", "modules")}
    m["cli.self_s"] = layers["cli"]["self_ns"] / 1e9 / n
    m["cli.ns_per_row"] = layers["cli"]["self_ns"] / rows if rows else 0.0
    m["cli.rows_out"] = rows / n
    m["cli.bytes_out"] = sum(r.get("bytes_out", 0) for r in traced) / n
    for layer in ("bounds", "states", "moments", "qfim", "oracle"):
        calls, self_ns = layers[layer]["calls"], layers[layer]["self_ns"]
        m[f"{layer}.calls"] = calls / n
        m[f"{layer}.self_s"] = self_ns / 1e9 / n
        if layer in ("bounds", "states", "moments"):
            m[f"{layer}.ns_per_call"] = self_ns / calls if calls else 0.0
    m["oracle.inner_product_calls"] = functions.get("oracle.inner_product", {}).get("calls", 0) / n
    m["oracle.term_pairs"] = counters["oracle.term_pairs"] / n
    m["oracle.bytes_computed"] = counters["oracle.bytes_computed"] / n
    for d in mix.ORACLE_LADDER:
        walls = [r["wall_s"] for r in records
                 if r.get("kind") == "ecs" and r.get("d") == d and r["wall_s"] is not None]
        m[f"oracle.probe_s.d{d}"] = statistics.median(walls) if walls else 0.0
    m["oracle.dense_s"] = functions.get("oracle.dense_qfim", {}).get("incl_ns", 0) / 1e9 / n
    m["oracle.minimal_cutoff_s"] = (functions.get("oracle.minimal_cutoff", {})
                                    .get("incl_ns", 0) / 1e9 / n)
    m["oracle.cutoff_max"] = counters["oracle.cutoff_max"]
    m["oracle.tail_mass_max"] = counters["oracle.tail_mass_max"]
    untraced = sum(r["wall_s"] for r in traced)
    m["trace.overhead_frac"] = (sum(r["traced_wall_s"] for r in traced) / untraced - 1.0
                                if untraced else 0.0)
    return {name: m[name] for name, _ in PER_LAYER}


# -------------------------------------------------------------- provenance

def _cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def _machine_load() -> dict:
    """/proc/loadavg, the CPU pressure line and the time of a fixed Python loop.

    The loop (median of five) shows how fast this CPU runs right now; on a
    shared host it varies even when nothing else in the VM is busy.
    """
    times = []
    for _ in range(5):
        t0 = time.perf_counter()
        sum(i * i for i in range(100_000))
        times.append(time.perf_counter() - t0)
    out = {"fixed_loop_ms": 1e3 * statistics.median(times)}
    for key, path in (("loadavg", "/proc/loadavg"), ("cpu_pressure", "/proc/pressure/cpu")):
        try:
            with open(path) as fh:
                out[key] = fh.readline().strip()
        except OSError:
            out[key] = None
    return out


def _version(dist: str) -> str | None:
    try:
        return metadata.version(dist)
    except metadata.PackageNotFoundError:
        return None


def _git_commit() -> str | None:
    """HEAD of the checkout read from .git directly; None outside a git checkout."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        try:
            with open(os.path.join(git, ref)) as fh:
                return fh.read().strip()
        except FileNotFoundError:
            with open(os.path.join(git, "packed-refs")) as fh:
                for line in fh:
                    if line.rstrip().endswith(" " + ref):
                        return line.split()[0]
    except OSError:
        pass
    return None


def provenance(seed: int) -> dict:
    return {"nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "cpu_model": _cpu_model(), "python": platform.python_version(),
            "numpy": _version("numpy"), "scipy": _version("scipy"),
            "git_commit": _git_commit(), "seed": seed}


# -------------------------------------------------------------------- main

RUNNERS = {"oneshot": oneshot, "sweep": sweep, "oracle": oracle}


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    runner = Runner(seed)
    info = provenance(seed)
    info["load_before"] = _machine_load()
    setup = [] if trace else runner.setup_samples(SETUP_PROBES)
    imports = runner.import_profile(IMPORT_PROBES) if trace else None
    result = RUNNERS[workload](runner, seed, seconds, trace)
    info["load_after"] = _machine_load()
    if "sweep_threads" in result:
        info["sweep_threads"] = result["sweep_threads"]
    records = result["records"]
    if "worker_setup_s" in result:
        setup.append(result["worker_setup_s"])
    failed = failed_ops(records)
    defects = result.get("known_defects", [])
    defect_failures = sum(1 for d in defects if d["code"] != 0)
    wrong = [d for d in defects if d["wrong_output"] or d["code"] not in (0, 2)]
    if trace:
        metrics = per_layer(imports, records, result.get("trace"))
        reported = {}
        details = {"import_other_s": imports["other_s"]}
    else:
        metrics, reported, details = end_to_end(setup, records)
    reported["failed_frac"] = (failed + defect_failures) / (len(records) + len(defects))
    details.update(
        attempted=len(records), failed=failed, known_defects=defects,
        errors=[(r.get("argv") or r.get("kind"), r["errors"]) for r in records if r["errors"]][:20])
    units = dict(PER_LAYER if trace else END_TO_END)
    units.update(REPORTED)
    return {"workload": workload, "trace": trace, "seconds": seconds, "provenance": info,
            "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
            "reported": {k: {"value": v, "unit": units[k]} for k, v in reported.items()},
            "details": details, "correct": failed == 0 and not wrong,
            "ops": [{k: v for k, v in r.items() if k != "trace"} for r in records]}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not 0 < args.seconds <= 60:
        parser.error("--seconds must lie in (0, 60]")
    if not os.path.isfile(os.path.join(SRC, "phasebounds", "cli.py")):
        print(f"error: no phasebounds package under {SRC}", file=sys.stderr)
        return 2
    os.makedirs(WORK, exist_ok=True)
    # a SIGTERM unwinds through Runner.run, which kills and reaps the running child
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = []
    try:
        for name in names:
            results.append(run_workload(name, args.seed, args.seconds, bool(args.trace)))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for res in results:
        name = f"result-{res['workload']}-seed{args.seed}-trace{args.trace}.json"
        path = os.path.join(WORK, name)
        with open(path, "w") as fh:
            json.dump(res, fh, indent=1)
        d = res["details"]
        print(f"[{res['workload']}] attempted={d['attempted']} failed={d['failed']} "
              f"known-defect ops={len(d['known_defects'])} correct={res['correct']}  "
              f"-> {os.path.relpath(path, ROOT)}")
        for label, group in (("gated", res["metrics"]), ("reported, not gated", res["reported"])):
            print(f"  {label}:")
            for name, m in group.items():
                print(f"    {name:28s} {m['value']!r:>24} {m['unit']}")
        if "op_tail_percentile" in d:
            print(f"  op_tail_s is p{d['op_tail_percentile']:.1f} of n={d['op_samples']}")
    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{k}": v for r in results for k, v in r["metrics"].items()}
    print(json.dumps({"correct": all(r["correct"] for r in results),
                      "attempted": sum(r["details"]["attempted"] for r in results),
                      "failed": sum(r["details"]["failed"] for r in results),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
