"""Acceptance suite: one test per criterion, at the stated tolerances.

Each test prints a PASS line when its assertions hold (run with -s to see
them); tolerances are pinned here, not configured elsewhere.
"""

import cmath
import json
import math
import time

import numpy as np
import pytest

from conescale import (Cone, ConeFunction, ContractionFailureError, Grid,
                       GaussianRhs, MatrixPencil, PoleRhs, Ray, RayFunction,
                       TIME, TransformContext, VariableProblem,
                       cauchy_reconstruct, constant_problem,
                       continuation_certificate, localize_traces,
                       paley_wiener_check, parseval_check, project_halfline,
                       projection_idempotence_check,
                       solve_scaled, solve_variable, spectrum)
from conescale.cli import main as cli_main
from conescale.stencils import fornberg_weights
from conftest import gaussian_on
from _oracles import (collocation_perturbed_first_order,
                      fd_laplacian_eigenvalues)

LINEAR = MatrixPencil((np.eye(1), 1j * np.eye(1)))


def report(n, text):
    print(f"PASS criterion {n}: {text}")


def budget(n, started, limit):
    elapsed = time.time() - started
    assert elapsed <= limit, f"criterion {n} exceeded its {limit}s budget"
    return elapsed


def test_criterion_01_parseval(grid4096):
    started = time.time()
    worst = 0.0
    for psi in (0.0, math.pi / 16, math.pi / 8):
        for zeta in (0j, 0.3j, -0.3j):
            for w in (0j, 0.5 + 0j):
                ctx = TransformContext(psi, zeta, w, grid4096)
                f = gaussian_on(grid4096, ctx.time_ray, number=zeta)
                rel = parseval_check(ctx, f).rel_err
                worst = max(worst, rel)
                assert rel <= 1e-6, (psi, zeta, w, rel)
    elapsed = budget(1, started, 10.0)
    report(1, f"Parseval sweep max rel err {worst:.2e} <= 1e-6 "
              f"({elapsed:.1f}s <= 10s)")


def test_criterion_02_round_trip(ctx4096, gauss4096, one_sided4096):
    started = time.time()
    back = ctx4096.inverse(ctx4096.forward(gauss4096))
    gauss_err = float(np.max(np.abs(back.values - gauss4096.values)))
    assert gauss_err <= 1e-8
    back = ctx4096.inverse(ctx4096.forward(one_sided4096))
    err = np.abs(back.values - one_sided4096.values)[:, 0]
    t = one_sided4096.grid.nodes
    away = np.abs(t) > 3 * one_sided4096.grid.spacing
    jump_err = float(np.max(err[away]))
    assert jump_err <= 1e-6
    elapsed = budget(2, started, 5.0)
    report(2, f"round trips: gaussian {gauss_err:.2e} <= 1e-8, one-sided "
              f"{jump_err:.2e} <= 1e-6 off-jump ({elapsed:.1f}s <= 5s)")


def test_criterion_03_spectrum():
    started = time.time()
    quad = MatrixPencil((np.eye(1), np.zeros((1, 1)), np.eye(1)))
    spec = spectrum(quad)
    root_err = max(abs(lam - ref) for lam, ref in
                   zip(spec.eigenvalues, (-1j, 1j)))
    assert root_err <= 1e-10
    n = 16
    h = 1.0 / (n + 1)
    L = (np.diag(2.0 * np.ones(n)) - np.diag(np.ones(n - 1), 1)
         - np.diag(np.ones(n - 1), -1)) / h ** 2
    cyl = MatrixPencil((np.eye(n), np.zeros((n, n)), L))
    pos = np.sort([l.imag for l in spectrum(cyl).eigenvalues if l.imag > 0])
    closed = fd_laplacian_eigenvalues(n)
    fd_err = float(np.max(np.abs(pos - closed) / closed))
    assert fd_err <= 1e-8
    elapsed = budget(3, started, 2.0)
    report(3, f"lam^2+1 roots to {root_err:.1e} <= 1e-10; FD pencil to "
              f"{fd_err:.1e} <= 1e-8 relative ({elapsed:.1f}s <= 2s)")


def test_criterion_04_scaling_equivalence(grid4096):
    started = time.time()
    p = constant_problem(LINEAR, GaussianRhs(), grid4096)
    devs = []
    for phi in (math.pi / 16, math.pi / 8):
        _, _, rep = solve_scaled(p, phi, ray_table_angles=2)
        assert rep.deviation <= 1e-6
        assert rep.deviation_continuation <= 1e-6
        devs.append(rep.deviation)
    n = 16
    h = 1.0 / (n + 1)
    L = (np.diag(2.0 * np.ones(n)) - np.diag(np.ones(n - 1), 1)
         - np.diag(np.ones(n - 1), -1)) / h ** 2
    cyl = MatrixPencil((np.eye(n), np.zeros((n, n)), L))
    xs = np.arange(1, n + 1) * h
    cross = np.sin(math.pi * xs)
    cross /= np.linalg.norm(cross)
    pc = constant_problem(cyl, GaussianRhs(cross_section=cross), grid4096)
    _, _, repc = solve_scaled(pc, math.pi / 16, ray_table_angles=2)
    assert repc.deviation <= 1e-5
    elapsed = budget(4, started, 30.0)
    report(4, f"scalar deviations {max(devs):.1e} <= 1e-6; cylinder "
              f"{repc.deviation:.1e} <= 1e-5 ({elapsed:.1f}s <= 30s)")


def test_criterion_05_paley_wiener(one_sided4096):
    started = time.time()
    rep = paley_wiener_check(one_sided4096, "backward-support")
    assert rep.support_leakage <= 1e-8
    predicted = [n for half, _, n in rep.ray_norm_table if half == "predicted"]
    ratio = max(predicted) / predicted[0]
    assert ratio <= 1.5
    assert rep.verdict == "consistent"
    assert rep.opposite_verdict == "correctly-rejected"
    elapsed = budget(5, started, 10.0)
    report(5, f"theta(-t)e^t: sweep ratio {ratio:.3f} <= 1.5, leakage "
              f"{rep.support_leakage:.1e} <= 1e-8, wrong side flagged "
              f"({elapsed:.1f}s <= 10s)")


def test_criterion_06_cauchy_reconstruction():
    started = time.time()
    gauss = lambda lam: np.exp(-lam ** 2 / 2.0)
    cone = Cone(math.pi / 6, 0j, 1)
    grid = Grid(20.0, 16385)
    cf = ConeFunction.from_callable(cone, gauss, grid, n_angles=5)
    points = [0.5 * cmath.exp(1j * math.pi / 12),
              0.8 * cmath.exp(1j * math.pi / 12),
              1.2 * cmath.exp(1j * math.pi / 24),
              0.6 * cmath.exp(1j * math.pi / 8),
              -0.9 * cmath.exp(1j * math.pi / 12)]
    worst = 0.0
    for lam in points:
        err = abs(cauchy_reconstruct(cf, lam).value[0]
                  - gauss(np.array([lam]))[0])
        worst = max(worst, err)
        assert err <= 1e-6, lam
    # refinement order on the first point
    errs = []
    for count in (8193, 16385):
        cfr = ConeFunction.from_callable(cone, gauss, Grid(20.0, count),
                                         n_angles=5)
        errs.append(abs(cauchy_reconstruct(cfr, points[0]).value[0]
                        - gauss(np.array([points[0]]))[0]))
    order = math.log2(errs[0] / errs[1])
    assert order >= 1.8
    elapsed = budget(6, started, 10.0)
    report(6, f"five interior points max err {worst:.1e} <= 1e-6, refinement "
              f"order {order:.2f} >= 1.8 ({elapsed:.1f}s <= 10s)")


def test_criterion_07_projections():
    started = time.time()
    grid = Grid(20.0, 2048)
    t = grid.nodes
    f = RayFunction(Ray(0.0, 0j, TIME), grid, np.exp(-(t - 6.0) ** 2 / 2.0))
    idem = projection_idempotence_check(f, 0, 0, eta=2j)
    assert idem.max_deviation == 0.0
    comp = projection_idempotence_check(f, 0, -1, eta=2j)
    assert comp.max_deviation <= 1e-6
    kept = project_halfline(f, 0, v=0j).values
    rest = f.values - kept
    total = float(np.sum(np.abs(f.values) ** 2))
    split = float(np.sum(np.abs(kept) ** 2) + np.sum(np.abs(rest) ** 2))
    assert split == pytest.approx(total, rel=1e-15)
    elapsed = budget(7, started, 2.0)
    report(7, f"s=0 idempotence exact, composition {comp.max_deviation:.1e} "
              f"<= 1e-6, mass split exact ({elapsed:.1f}s <= 2s)")


def _neumann_problem(tmp_path, epsilon):
    return {
        "schema_version": 1,
        "pencil": {"degree": 1, "dim": 1,
                   "coefficients": [[[[1.0, 0.0]]], [[[0.0, 1.0]]]]},
        "geometry": {"cone": {"angle": math.pi / 8, "vertex": [0.0, 0.0],
                              "orientation": 1},
                     "weight": [0.0, 0.0]},
        "grid": {"half_width": 20.0, "count": 2048},
        "rhs": {"kind": "shifted_gaussian", "center": [5.0, 0.0]},
        "perturbation": {"kind": "rational_decay", "epsilon": epsilon,
                         "pole_scale": 3.0},
        "solver": {"res_tol": 1e-8},
    }


def test_criterion_08_neumann(tmp_path):
    started = time.time()
    grid = Grid(20.0, 2048)
    base = constant_problem(LINEAR, GaussianRhs(center=5.0), grid)

    def coefficients(z):
        return [(0.05 / (z ** 2 + 9.0))[:, None, None], np.zeros((1, 1))]

    vp = VariableProblem(base, coefficients, sector_start=-12.0)
    res = solve_variable(vp, res_tol=1e-8)
    assert res.contraction_ratio <= 0.5
    assert res.residuals[-1] <= 1e-8
    oracle = collocation_perturbed_first_order(
        lambda t: 0.05 / (t ** 2 + 9.0), grid, base.rhs.values[:, 0])
    agreement = float(np.max(np.abs(res.u.values[:, 0] - oracle)))
    assert agreement <= 1e-6

    def big(z):
        return [(50.0 / (z ** 2 + 9.0))[:, None, None], np.zeros((1, 1))]

    with pytest.raises(ContractionFailureError) as err:
        solve_variable(VariableProblem(base, big, sector_start=-12.0),
                       res_tol=1e-8)
    trace = err.value.residuals
    assert trace[1] > trace[0]

    path = tmp_path / "neumann50.json"
    path.write_text(json.dumps(_neumann_problem(tmp_path, 50.0)),
                    encoding="utf-8")
    assert cli_main(["solve", str(path)]) == 4
    elapsed = budget(8, started, 20.0)
    report(8, f"eps=0.05: q={res.contraction_ratio:.1e} <= 0.5, residual "
              f"{res.residuals[-1]:.1e} <= 1e-8, oracle {agreement:.1e} <= "
              f"1e-6; eps=50 contraction failure, exit 4 "
              f"({elapsed:.1f}s <= 20s)")


def test_criterion_09_continuation_certificate(grid4096):
    started = time.time()
    p = constant_problem(LINEAR, GaussianRhs(), grid4096)
    cert = continuation_certificate(p, math.pi / 8, offset=1.0)
    assert cert.verdict == "holds"
    assert cert.ratio <= 2.0
    pole = constant_problem(LINEAR, PoleRhs(5.0 + 0.25j), grid4096)
    blown = continuation_certificate(pole, -math.pi / 8, offset=1.0,
                                     n_angles=17)
    assert blown.verdict == "blow-up"
    elapsed = budget(9, started, 30.0)
    report(9, f"unperturbed sweep ratio {cert.ratio:.3f} <= 2; pole-bearing "
              f"rhs reported as blow-up ({elapsed:.1f}s <= 30s)")


def test_criterion_10_trace_localization():
    started = time.time()
    traces = [np.array([1.0 + 0j])] * 3
    loc = localize_traces(traces, cone=math.pi / 8)
    rec_err = max(abs(loc.derivative_at_vertex(j)[0] - 1.0) for j in range(3))
    assert rec_err <= 1e-10
    h = 0.01
    stencil = np.arange(-6, 7) * h
    diff = np.exp(1j * stencil) - loc(stencil.astype(complex))[:, 0]
    kill = max(abs((-1j) ** j * (fornberg_weights(0.0, stencil, j) @ diff))
               for j in range(3))
    assert kill <= 1e-6
    elapsed = budget(10, started, 1.0)
    report(10, f"e^{{it}} traces reconstructed to {rec_err:.1e} <= 1e-10; "
               f"(u - Phi) vertex derivatives {kill:.1e} <= 1e-6 "
               f"({elapsed:.1f}s <= 1s)")


def test_criterion_11_cli_determinism(tmp_path):
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    prob = tmp_path / "cyl.json"
    args = ["demo-cylinder", "--n", "4", "--phi", str(math.pi / 16),
            "--out-problem", str(prob)]
    assert cli_main(args + ["--out", str(out1)]) == 0
    assert cli_main(args + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()

    base = {
        "schema_version": 1,
        "pencil": {"degree": 2, "dim": 1,
                   "coefficients": [[[[1.0, 0.0]]], [[[0.0, 0.0]]],
                                    [[[1.0, 0.0]]]]},
        "geometry": {"cone": {"angle": math.pi / 6, "vertex": [0.0, 2.0],
                              "orientation": 1},
                     "weight": [0.0, 0.0]},
        "grid": {"half_width": 20.0, "count": 256},
        "rhs": {"kind": "gaussian"},
    }
    import copy
    breakers = [
        ("missing pencil.degree", lambda d: d["pencil"].pop("degree")),
        ("unknown top-level field", lambda d: d.update(surprise=1)),
        ("weight not a pair", lambda d: d["geometry"].update(weight=[1.0])),
        ("wrong coefficient count",
         lambda d: d["pencil"].update(coefficients=[[[[1.0, 0.0]]]])),
        ("bad rhs kind", lambda d: d["rhs"].update(kind="wavelet")),
    ]
    for k, (label, breaker) in enumerate(breakers):
        bad = copy.deepcopy(base)
        breaker(bad)
        path = tmp_path / f"bad{k}.json"
        path.write_text(json.dumps(bad), encoding="utf-8")
        assert cli_main(["spectrum", str(path)]) == 2, label
    report(11, "demo-cylinder byte-identical across runs; 5 canonical "
               "malformed files rejected with exit 2")
