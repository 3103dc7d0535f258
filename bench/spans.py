"""Spans and counters around conescale's layer boundaries, from outside.

``install(tracer)`` wraps coarse public functions of ``src/conescale`` in
place.  Modules bind many of them by name (``solver`` and ``cli`` import
``spectrum``, ``solve_const`` and friends), so every loaded conescale module
that holds the original object gets the wrapper.  Nothing under ``src/`` is
edited.  Self time is a span's duration minus the time its child spans
cover.  Small hot helpers (``_fmt``, ``evaluate``) are never wrapped.
"""

import functools
import sys
import time

import numpy as np


class Tracer:
    def __init__(self):
        self.spans = {}          # name -> [calls, total_s, self_s]
        self.counters = {}
        self._child_time = []    # one accumulator per open span
        self._pencils = set()

    def count(self, name, amount=1):
        self.counters[name] = self.counters.get(name, 0) + amount

    def wrap(self, name, fn, after=None, on_error=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self._child_time.append(0.0)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                if on_error is not None:
                    on_error(self, exc)
                raise
            finally:
                elapsed = time.perf_counter() - start
                child = self._child_time.pop()
                if self._child_time:
                    self._child_time[-1] += elapsed
                rec = self.spans.setdefault(name, [0, 0.0, 0.0])
                rec[0] += 1
                rec[1] += elapsed
                rec[2] += elapsed - child
            if after is not None:
                after(self, args, kwargs, result)
            return result
        return wrapper

    def summary(self):
        out = {}
        for name, (calls, total, self_s) in sorted(self.spans.items()):
            out[name] = {"calls": calls, "total_s": total, "self_s": self_s}
        return {"spans": out, "counters": dict(sorted(self.counters.items())),
                "distinct_pencils": len(self._pencils)}


def _samples(tracer, args, kwargs, result):
    tracer.count("transform.samples", int(np.size(args[1].values)))


def _pencil_seen(tracer, args, kwargs, result):
    p = args[0]
    tracer._pencils.add(b"".join(c.tobytes() for c in p.coefficients))


def _resolvent_nodes(tracer, args, kwargs, result):
    tracer.count("pencil.resolvent.nodes", int(np.size(args[1])))


def _resolvent_failure(tracer, exc):
    if type(exc).__name__ == "NearEigenvalueError":
        tracer.count("pencil.resolvent.failures")


def _neumann_sweeps(tracer, args, kwargs, result):
    tracer.count("solver.neumann.sweeps", len(result.residuals))


def _rays_blown(tracer, args, kwargs, result):
    tracer.count("solver.certificate.rays_blown",
                 sum(1 for _, v in result.rows if not np.isfinite(v)))


# (span name, module, attribute path, after-hook, error-hook)
TARGETS = (
    ("transform.forward", "transform", "TransformContext.forward",
     _samples, None),
    ("transform.inverse", "transform", "TransformContext.inverse",
     _samples, None),
    ("transform.evaluate_continuation", "transform",
     "TransformContext.evaluate_continuation", None, None),
    ("pencil.spectrum", "pencil", "spectrum", _pencil_seen, None),
    ("pencil.cone_clearance", "pencil", "cone_clearance", None, None),
    ("pencil.resolvent_apply_batch", "pencil", "resolvent_apply_batch",
     _resolvent_nodes, _resolvent_failure),
    ("pencil.evaluate_batch", "pencil", "evaluate_batch", None, None),
    ("stencils.derivative", "stencils", "derivative_uniform", None, None),
    ("stencils.derivative", "stencils", "derivative_with_cuts", None, None),
    ("hardy.halfline_projection", "hardy", "halfline_projection", None, None),
    ("solver.apply_pencil_fd", "solver", "apply_pencil_fd", None, None),
    ("solver.solve_const", "solver", "solve_const", None, None),
    ("solver.solve_scaled", "solver", "solve_scaled", None, None),
    ("solver.solve_variable", "solver", "solve_variable",
     _neumann_sweeps, None),
    ("solver.continuation_certificate", "solver", "continuation_certificate",
     _rays_blown, None),
    ("cli.load_problem", "cli", "load_problem", None, None),
    ("cli.report_table", "cli", "Report.table", None, None),
    ("cli.command", "cli", "cmd_spectrum", None, None),
    ("cli.command", "cli", "cmd_clearance", None, None),
    ("cli.command", "cli", "cmd_solve", None, None),
    ("cli.command", "cli", "cmd_verify", None, None),
    ("cli.command", "cli", "cmd_demo_cylinder", None, None),
)


def install(tracer):
    """Wrap every target in every loaded conescale module that binds it."""
    modules = [m for name, m in sorted(sys.modules.items())
               if name == "conescale" or name.startswith("conescale.")]
    for span, module, path, after, on_error in TARGETS:
        owner = sys.modules[f"conescale.{module}"]
        *outer, attr = path.split(".")
        for part in outer:
            owner = getattr(owner, part)
        original = getattr(owner, attr)
        wrapper = tracer.wrap(span, original, after, on_error)
        setattr(owner, attr, wrapper)
        if not outer:
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
