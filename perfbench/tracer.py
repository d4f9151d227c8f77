"""Outside-in layer timing for phasebounds, installed from the benchmark's side.

The layers are the package's modules.  `Tracer.install` wraps every public
function (each name in a module's ``__all__`` that is a plain function) and
rebinds the wrapper in every ``phasebounds`` module namespace that holds
the original, so calls made through ``from .states import domain_geometry``
are seen as well as ``bounds.qcrb_ecs_linear``.  Each call records a span
(function, start, end, parent) in a per-thread flat array kept in memory;
`Tracer.summary` turns the spans into per-layer calls and self time at the
end.  A span's self time is its duration minus the union of the intervals
its children cover.  A root span opened on a pool thread gets as parent the
span open on the main thread at that moment, so a sweep's pool work is
subtracted from `cli.main`.

Run as a script it is the traced form of one CLI op::

    PYTHONPATH=src python3 perfbench/tracer.py OUT.json -- bounds --family ecs-linear ...

It runs the argv through ``phasebounds.cli.main`` and writes the summary
to OUT.json, with the monotonic time at which ``main`` returned.  Importing
this module has no side effects.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import threading
import time
import types
from array import array

LAYERS = ("moments", "states", "qfim", "bounds", "oracle", "verify", "cli")
COMPLEX_BYTES = 16


class Tracer:
    def __init__(self) -> None:
        self.names: list[tuple[str, str]] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        # one (spans, stack) per thread; spans is a flat array of
        # (function id, start ns, end ns, parent) records
        self._main_state = (array("q"), [], True)
        self._local.state = self._main_state
        self._workers: list[array] = []
        self._rebound: list[tuple[object, str, object, object]] = []
        self.counters = {"oracle.term_pairs": 0, "oracle.bytes_computed": 0,
                         "oracle.cutoff_max": 0, "oracle.tail_mass_max": 0.0}

    # ------------------------------------------------------------ install

    def install(self) -> int:
        """Wrap every public function of every layer; returns how many.

        The wrappers are made once; a later call after `uninstall` binds the
        same wrappers again, so spans keep accumulating in this tracer.
        """
        if not self._rebound:
            self._make_wrappers()
        for ns, attr, _, wrapper in self._rebound:
            setattr(ns, attr, wrapper)
        return len(self.names)

    def uninstall(self) -> None:
        """Put the original functions back."""
        for ns, attr, fn, _ in self._rebound:
            setattr(ns, attr, fn)

    def _make_wrappers(self) -> None:
        mods = [importlib.import_module(f"phasebounds.{layer}") for layer in LAYERS]
        package = [m for name, m in sys.modules.items()
                   if name == "phasebounds" or name.startswith("phasebounds.")]
        for layer, mod in zip(LAYERS, mods):
            for name in getattr(mod, "__all__", ()):
                fn = getattr(mod, name, None)
                if not isinstance(fn, types.FunctionType):
                    continue
                wrapper = self._wrap(len(self.names), fn, self._hook(layer, name))
                self.names.append((layer, name))
                for ns in package:
                    for attr, value in vars(ns).items():
                        if value is fn:
                            self._rebound.append((ns, attr, fn, wrapper))

    def _thread_state(self):
        spans = array("q")
        with self._lock:
            self._workers.append(spans)
        self._local.state = (spans, [], False)
        return self._local.state

    def _wrap(self, fid: int, fn, hook):
        local, clock = self._local, time.perf_counter_ns
        main_stack = self._main_state[1]

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                spans, stack, on_main = local.state
            except AttributeError:
                spans, stack, on_main = self._thread_state()
            if stack:
                parent = stack[-1]
            elif not on_main and main_stack:
                parent = -2 - main_stack[-1]
            else:
                parent = -1
            idx = len(spans) >> 2
            stack.append(idx)
            spans.extend((fid, clock(), 0, parent))
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[(idx << 2) + 2] = clock()
                stack.pop()
            if hook is not None:
                hook(args, kwargs, result)
            return result

        return wrapper

    def _hook(self, layer: str, name: str):
        c = self.counters
        if layer == "oracle" and name == "inner_product":
            def count_pairs(args, _kwargs, _result):
                s1, s2 = args[0], args[1]
                pairs = len(s1.terms) * len(s2.terms)
                c["oracle.term_pairs"] += pairs
                # computed, not measured: two vectors of cutoff+1 amplitudes per mode per pair
                c["oracle.bytes_computed"] += (pairs * s1.num_modes * 2
                                               * (s1.cutoff() + 1) * COMPLEX_BYTES)
            return count_pairs
        if layer == "oracle" and name == "truncated_coherent":
            def track_truncation(args, kwargs, mode):
                # only cutoffs the oracle chose itself (a tail tolerance was
                # given), not the fixed cutoffs of dense probes
                tail_tol = args[2] if len(args) > 2 else kwargs.get("tail_tol")
                if tail_tol is not None:
                    c["oracle.cutoff_max"] = max(c["oracle.cutoff_max"], mode.cutoff)
                    c["oracle.tail_mass_max"] = max(c["oracle.tail_mass_max"],
                                                    float(mode.tail_mass))
            return track_truncation
        return None

    # ------------------------------------------------------------ summary

    def summary(self) -> dict:
        """Per-function and per-layer calls, self time and inclusive time (ns)."""
        per_fn = [[0, 0, 0] for _ in self.names]  # calls, self_ns, incl_ns
        main_spans = self._main_state[0]
        main_children = _children(main_spans)
        for spans in self._workers:
            children = _children(spans)
            for i in range(len(spans) >> 2):
                parent = spans[4 * i + 3]
                if parent <= -2:
                    main_children.setdefault(-2 - parent, []).append(
                        (spans[4 * i + 1], spans[4 * i + 2]))
            _accumulate(spans, children, per_fn)
        _accumulate(main_spans, main_children, per_fn)
        functions = {f"{layer}.{name}": {"calls": v[0], "self_ns": v[1], "incl_ns": v[2]}
                     for (layer, name), v in zip(self.names, per_fn) if v[0]}
        layers = {layer: {"calls": 0, "self_ns": 0} for layer in LAYERS}
        for (layer, _), v in zip(self.names, per_fn):
            layers[layer]["calls"] += v[0]
            layers[layer]["self_ns"] += v[1]
        spans = sum(len(s) >> 2 for s in [main_spans, *self._workers])
        return {"layers": layers, "functions": functions, "counters": dict(self.counters),
                "spans": spans, "threads": 1 + len(self._workers)}


def _covered(intervals: list[tuple[int, int]]) -> int:
    """Length of the union of [start, end) intervals."""
    if len(intervals) == 1:
        return intervals[0][1] - intervals[0][0]
    total, cur_start, cur_end = 0, None, None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        elif end > cur_end:
            cur_end = end
    return total + (cur_end - cur_start if cur_end is not None else 0)


def _children(spans: array) -> dict[int, list[tuple[int, int]]]:
    """Same-thread child intervals of each span, keyed by the parent's index."""
    children: dict[int, list[tuple[int, int]]] = {}
    for i in range(len(spans) >> 2):
        parent = spans[4 * i + 3]
        if parent >= 0:
            children.setdefault(parent, []).append((spans[4 * i + 1], spans[4 * i + 2]))
    return children


def _accumulate(spans: array, children: dict, per_fn: list) -> None:
    for i in range(len(spans) >> 2):
        fid, start, end = spans[4 * i], spans[4 * i + 1], spans[4 * i + 2]
        dur = end - start
        kids = children.get(i)
        acc = per_fn[fid]
        acc[0] += 1
        acc[1] += dur - (_covered(kids) if kids else 0)
        acc[2] += dur


def parse_importtime(stderr: str) -> dict:
    """Split `python -X importtime` output into numpy, scipy, phasebounds and other.

    Each module's self time goes to the nearest of itself and its importers
    that is numpy or scipy; failing that, to phasebounds if a phasebounds
    module imported it; otherwise to "other" (interpreter start-up).
    """
    nodes = []  # (depth, name, self_us, children)
    pending: dict[int, list] = {}
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "imported package" in line:
            continue
        fields = line[len("import time:"):].split("|")
        if len(fields) != 3:
            continue
        raw = fields[2].rstrip()
        depth = (len(raw) - len(raw.lstrip(" ")) - 1) // 2
        node = (depth, raw.strip(), int(fields[0]), pending.pop(depth + 1, []))
        pending.setdefault(depth, []).append(node)
        nodes.append(node)
    totals = {"numpy": 0, "scipy": 0, "phasebounds": 0, "other": 0}

    def walk(node, cat):
        top = node[1].split(".")[0]
        if top in ("numpy", "scipy"):
            cat = top
        elif cat is None and top == "phasebounds":
            cat = "phasebounds"
        totals[cat or "other"] += node[2]
        for child in node[3]:
            walk(child, cat)

    for root in pending.get(0, []):
        walk(root, None)
    return {"total_s": sum(totals.values()) / 1e6, "numpy_s": totals["numpy"] / 1e6,
            "scipy_s": totals["scipy"] / 1e6, "phasebounds_s": totals["phasebounds"] / 1e6,
            "other_s": totals["other"] / 1e6, "modules": len(nodes)}


def main(argv: list[str]) -> int:
    out_path, sep, cli_argv = argv[0], argv[1], argv[2:]
    if sep != "--":
        raise SystemExit("usage: tracer.py OUT.json -- CLI-ARGS...")
    from phasebounds import cli

    tracer = Tracer()
    wrapped = tracer.install()
    code = cli.main(cli_argv)
    done_ns = time.clock_gettime_ns(time.CLOCK_MONOTONIC)
    sys.stdout.flush()
    summary = tracer.summary()
    summary.update(code=code, wrapped=wrapped, done_ns=done_ns,
                   summary_ns=time.clock_gettime_ns(time.CLOCK_MONOTONIC) - done_ns)
    with open(out_path, "w") as fh:
        json.dump(summary, fh)
    return code


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
