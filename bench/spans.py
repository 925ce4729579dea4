"""In-memory span tracing around the package's layer boundaries.

The benchmark does not edit the package: ``instrument`` replaces, for the
duration of a ``with`` block, every binding of a layer's public function in
the package's modules with a wrapper that records a span.  Each span holds a
name, start, end, parent span and request id; the request id is the client's
command or call.  Spans recorded on a pool thread have no open parent on that
thread, so their parent is the request's root span.
"""

from __future__ import annotations

import importlib
import itertools
import statistics
import sys
import threading
import time
from collections import Counter
from contextlib import contextmanager

#: (module, function) -> span name, for the functions each layer exposes.
LAYER_FUNCTIONS = {
    ("yukawa_atom.perturbation", "energy_breakdown"): "perturbation.breakdown",
    ("yukawa_atom.refdata", "load_reference"): "refdata.load",
    ("yukawa_atom.refdata", "compare"): "refdata.compare",
    ("yukawa_atom.oracle", "solve_bound_state"): "oracle.solve",
    ("yukawa_atom.wavefunctions", "correction_via_quadrature"): "wavefunctions.correction",
    ("yukawa_atom.wavefunctions", "coulomb_chi"): "wavefunctions.coulomb_chi",
    ("yukawa_atom.wavefunctions", "moderated_radial"): "wavefunctions.moderated_radial",
    ("yukawa_atom.cli", "cmd_level"): "cli.handler",
    ("yukawa_atom.cli", "cmd_table"): "cli.handler",
    ("yukawa_atom.cli", "cmd_verify"): "cli.handler",
    ("yukawa_atom.cli", "cmd_compare"): "cli.handler",
}

#: Sweep module for each value of ``numerov_backend()``.
KERNEL_MODULES = {"compiled": "yukawa_atom._numerov_ext", "pure-python": "yukawa_atom._numerov_py"}

PER_LAYER_UNITS = {
    "import.package_ms": "ms",
    "import.scipy_integrate_ms": "ms",
    "cli.parser_us": "us",
    "cli.self_ms_p50": "ms",
    "perturbation.breakdown_us_p50": "us",
    "perturbation.calls": "count",
    "refdata.load_ms_p50": "ms",
    "refdata.compare_ms_p50": "ms",
    "refdata.rows": "count",
    "oracle.solve_s_p50": "s",
    "oracle.no_bound_ms_p50": "ms",
    "oracle.busy_s": "s",
    "oracle.wall_s": "s",
    "oracle.grid_points": "count",
    "kernel.sweeps": "count",
    "kernel.points": "count",
    "kernel.ns_per_point": "ns",
    "wavefunctions.correction_ms_p50": "ms",
    "wavefunctions.coulomb_chi_ms_p50": "ms",
    "wavefunctions.moderated_radial_ms_p50": "ms",
    "wavefunctions.quad_calls": "count",
    "wavefunctions.corrections_per_quad_call": "ratio",
    "trace.ops_per_s": "1/s",
}


class Tracer:
    """Spans and counters kept in memory until the run ends."""

    def __init__(self):
        self.spans = []  # (id, name, start, end, parent, request, attrs)
        self.counts = Counter()
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._root = None
        self._request = None

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open_names(self):
        return [name for _, name in self._stack()]

    @contextmanager
    def request(self, request_id, name):
        """Root span of one client command or call."""
        self._request = request_id
        with self.span(name) as attrs:
            self._root = self._stack()[-1][0]
            yield attrs
        self._root = None

    @contextmanager
    def span(self, name):
        stack = self._stack()
        sid = next(self._ids)
        parent = stack[-1][0] if stack else self._root
        attrs = {}
        stack.append((sid, name))
        start = time.perf_counter()
        try:
            yield attrs
        except BaseException as exc:
            attrs["raised"] = type(exc).__name__
            raise
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append((sid, name, start, end, parent, self._request, attrs))

    def wrap(self, fn, name, on_result=None):
        def wrapper(*args, **kwargs):
            with self.span(name) as attrs:
                result = fn(*args, **kwargs)
                if on_result is not None:
                    on_result(attrs, args, result)
                return result

        return wrapper


def _package_bindings(obj):
    """(module, name) of every binding of ``obj`` in the package's modules."""
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "yukawa_atom" or mod_name.startswith("yukawa_atom.")):
            continue
        for attr, value in list(vars(mod).items()):
            if value is obj:
                yield mod, attr


def _rebind(original, replacement, undo):
    """Point every binding of ``original`` in the package at ``replacement``."""
    for mod, attr in list(_package_bindings(original)):
        undo.append((mod, attr, original))
        setattr(mod, attr, replacement)


def count_quad(tracer, undo):
    """Count ``scipy.integrate.quad`` calls, and those made inside a correction.

    Called before the package is imported so that a module-level
    ``from scipy.integrate import quad`` binds the counting wrapper.
    Returns the original and the wrapper.
    """
    import scipy.integrate

    original = scipy.integrate.quad

    def quad(*args, **kwargs):
        tracer.counts["quad_calls"] += 1
        if "wavefunctions.correction" in tracer.open_names():
            tracer.counts["quad_in_correction"] += 1
        return original(*args, **kwargs)

    undo.append((scipy.integrate, "quad", original))
    scipy.integrate.quad = quad
    return original, quad


def _grid_points(attrs, args, result):
    attrs["grid_points"] = result.grid_points


def _rows(attrs, args, result):
    attrs["rows"] = len(result.rows)


def _points(attrs, args, result):
    attrs["points"] = len(args[0])


@contextmanager
def instrument(tracer):
    """Wrap every layer boundary of the (imported) package; undo on exit."""
    undo = []
    try:
        original_quad, counting_quad = count_quad(tracer, undo)
        import yukawa_atom

        # bound by the import just made, or by one made before this run
        undo.extend((mod, attr, original_quad) for mod, attr in _package_bindings(counting_quad))
        _rebind(original_quad, counting_quad, undo)

        results = {"oracle.solve": _grid_points, "refdata.load": _rows}
        for (mod_name, fn_name), span_name in LAYER_FUNCTIONS.items():
            fn = getattr(sys.modules.get(mod_name), fn_name, None)
            if fn is not None:
                _rebind(fn, tracer.wrap(fn, span_name, results.get(span_name)), undo)
        kernel = _kernel_module(yukawa_atom)
        if kernel is not None:
            original = kernel.count_nodes_sweep
            undo.append((kernel, "count_nodes_sweep", original))
            kernel.count_nodes_sweep = tracer.wrap(original, "kernel.sweep", _points)
        yield tracer
    finally:
        for mod, attr, value in reversed(undo):
            setattr(mod, attr, value)


def _kernel_module(package):
    """The sweep module ``numerov_backend()`` names, if the package has one."""
    backend = getattr(package, "numerov_backend", None)
    if backend is None:
        return None
    try:
        module = importlib.import_module(KERNEL_MODULES[backend()])
    except (KeyError, ImportError):
        return None
    return module if hasattr(module, "count_nodes_sweep") else None


def _union(intervals):
    total = 0.0
    end = float("-inf")
    for a, b in sorted(intervals):
        if b <= end:
            continue
        total += b - max(a, end)
        end = b
    return total


def _p50(values, scale):
    return statistics.median(values) * scale if values else 0.0


def layer_metrics(tracer, rounds):
    """Per-layer numbers from the recorded spans; counts are per round."""
    by_name = {}
    for span in tracer.spans:
        by_name.setdefault(span[1], []).append(span)

    def durations(name, keep=lambda s: True):
        return [s[3] - s[2] for s in by_name.get(name, []) if keep(s)]

    commands = by_name.get("cli.command", [])
    handler_start = {s[5]: s[2] for s in by_name.get("cli.handler", [])}
    layer_spans = {}
    for s in tracer.spans:
        if not s[1].startswith("cli.") and s[5] is not None:
            layer_spans.setdefault(s[5], []).append((s[2], s[3]))
    cli_self = [(c[3] - c[2]) - _union(layer_spans.get(c[5], [])) for c in commands]
    parser = [handler_start[c[5]] - c[2] for c in commands if c[5] in handler_start]

    solves = by_name.get("oracle.solve", [])
    solved = [s for s in solves if "raised" not in s[6]]
    no_bound = durations("oracle.solve", lambda s: s[6].get("raised") == "NoBoundState")
    sweeps = by_name.get("kernel.sweep", [])
    points = sum(s[6].get("points", 0) for s in sweeps)
    sweep_time = sum(s[3] - s[2] for s in sweeps)
    corrections = len(by_name.get("wavefunctions.correction", []))
    quad_in_corr = tracer.counts["quad_in_correction"]

    return {
        "cli.parser_us": _p50(parser, 1e6),
        "cli.self_ms_p50": _p50(cli_self, 1e3),
        "perturbation.breakdown_us_p50": _p50(durations("perturbation.breakdown"), 1e6),
        "perturbation.calls": len(by_name.get("perturbation.breakdown", [])) / rounds,
        "refdata.load_ms_p50": _p50(durations("refdata.load"), 1e3),
        "refdata.compare_ms_p50": _p50(durations("refdata.compare"), 1e3),
        "refdata.rows": sum(s[6].get("rows", 0) for s in by_name.get("refdata.load", [])) / rounds,
        "oracle.solve_s_p50": _p50([s[3] - s[2] for s in solved], 1.0),
        "oracle.no_bound_ms_p50": _p50(no_bound, 1e3),
        "oracle.busy_s": sum(s[3] - s[2] for s in solves) / rounds,
        "oracle.wall_s": _union([(s[2], s[3]) for s in solves]) / rounds,
        "oracle.grid_points": sum(s[6].get("grid_points", 0) for s in solved) / rounds,
        "kernel.sweeps": len(sweeps) / rounds,
        "kernel.points": points / rounds,
        "kernel.ns_per_point": sweep_time / points * 1e9 if points else 0.0,
        "wavefunctions.correction_ms_p50": _p50(durations("wavefunctions.correction"), 1e3),
        "wavefunctions.coulomb_chi_ms_p50": _p50(durations("wavefunctions.coulomb_chi"), 1e3),
        "wavefunctions.moderated_radial_ms_p50":
            _p50(durations("wavefunctions.moderated_radial"), 1e3),
        "wavefunctions.quad_calls": tracer.counts["quad_calls"] / rounds,
        "wavefunctions.corrections_per_quad_call":
            corrections / quad_in_corr if quad_in_corr else 0.0,
    }
