"""The benchmark tracer's targets must exist in the package.

``bench/spans.py`` wraps the functions named in its ``TARGETS`` table by
attribute path.  A rename in ``src/`` would otherwise surface only when a
traced benchmark run or ``bench/run.py --selftest`` dies with an
AttributeError.  The table is read by loading the file by path, and
``install`` is never called.  The call count tests wrap the same targets
with the benchmark's own Tracer through monkeypatch, which undoes it.
"""

import importlib
import importlib.util
import pathlib
import sys

import numpy as np
import pytest

SPANS = pathlib.Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def _spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _targets():
    return _spans().TARGETS


@pytest.mark.parametrize("target", _targets(),
                         ids=lambda t: f"{t[1]}.{t[2]}")
def test_target_resolves(target):
    _, module, path, _, _ = target
    owner = importlib.import_module(f"conescale.{module}")
    for part in path.split("."):
        owner = getattr(owner, part)
    assert callable(owner)


def _install_counting(monkeypatch, tracer):
    """bench/spans.py's install, undone after the test: each target is
    wrapped by the benchmark's own Tracer, in every loaded conescale module
    that bound it by name."""
    modules = [m for name, m in sorted(sys.modules.items())
               if name == "conescale" or name.startswith("conescale.")]
    for _, module, path, _, _ in _targets():
        owner = importlib.import_module(f"conescale.{module}")
        *outer, attr = path.split(".")
        for part in outer:
            owner = getattr(owner, part)
        original = getattr(owner, attr)
        wrapper = tracer.wrap(f"{module}.{path}", original)
        monkeypatch.setattr(owner, attr, wrapper)
        if not outer:
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        monkeypatch.setattr(mod, key, wrapper)


def _counting_tracer(monkeypatch):
    tracer = _spans().Tracer()
    _install_counting(monkeypatch, tracer)
    return tracer


def _calls(tracer):
    return {name: rec[0] for name, rec in tracer.spans.items()}


def test_neumann_sweep_counts(monkeypatch):
    """Per Neumann sweep, through the names the benchmark's spans wrap:
    five transform passes (the resolve's forward and inverse, then the
    projection's inverse, forward and inverse from the resolve's frequency
    data), one projection, one finite-difference application with one
    cut-aware stencil call for both derivative orders, and one resolvent
    certificate."""
    from conescale import (GaussianRhs, Grid, MatrixPencil, VariableProblem,
                           constant_problem, solve_variable)

    tracer = _counting_tracer(monkeypatch)
    base = constant_problem(MatrixPencil((np.eye(1), 1j * np.eye(1))),
                            GaussianRhs(center=5.0), Grid(20.0, 2048))
    vp = VariableProblem(
        base, lambda z: [[(0.05 / (z ** 2 + 9.0), np.eye(1))], None],
        sector_start=-12.0)
    sweeps = len(solve_variable(vp, res_tol=1e-8).residuals)
    calls = _calls(tracer)
    assert sweeps == 3
    assert calls["transform.TransformContext.forward"] == 2 * sweeps
    assert calls["transform.TransformContext.inverse"] == 3 * sweeps
    assert calls["hardy.halfline_projection"] == sweeps
    assert calls["stencils.derivative_with_cuts"] == sweeps
    assert "stencils.derivative_uniform" not in calls
    assert calls["solver.apply_pencil_fd"] == sweeps
    assert calls["pencil.evaluate_batch"] == sweeps
    assert calls["pencil.resolvent_apply_batch"] == sweeps


def test_solve_const_counts(monkeypatch):
    """A constant-coefficient solve re-checks its residual with one stencil
    call for every derivative order of a degree-2 pencil."""
    tracer = _counting_tracer(monkeypatch)
    # imported after the wrapping, so the package's own name is wrapped too
    from conescale import (GaussianRhs, Grid, MatrixPencil, constant_problem,
                           solve_const)

    pencil = MatrixPencil((np.eye(2), 0.5 * np.eye(2), np.diag([1.0, 4.0])))
    rhs = GaussianRhs(cross_section=np.array([1.0, 0.5]))
    solve_const(constant_problem(pencil, rhs, Grid(20.0, 1024)))
    calls = _calls(tracer)
    assert calls["solver.solve_const"] == 1
    assert calls["solver.apply_pencil_fd"] == 1
    assert calls["stencils.derivative_with_cuts"] == 1
    assert "stencils.derivative_uniform" not in calls
