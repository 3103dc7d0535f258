import cmath
import math
from dataclasses import replace

import numpy as np
import pytest
import scipy.interpolate
from hypothesis import given, settings, strategies as st

import conescale.solver
from conescale import (FREQUENCY, ConstantProblem, ContractionFailureError,
                       Grid, GaussianRhs, LocalizationFailureError,
                       MatrixPencil, NumericalError, PoleRhs, Ray,
                       RayFunction, SpectralObstructionError, TIME,
                       ValidationError, VariableProblem, WeightOverflowError,
                       constant_problem,
                       continuation_certificate, localize_traces, solve_const,
                       solve_scaled, solve_variable)
from conescale.errors import ConfigurationError, NonFiniteSampleError
from conescale.geometry import derivative_energy
from conescale.cli import (cylinder_problem_dict, dirichlet_laplacian,
                           parse_problem)
from conescale.hardy import halfline_projection
from conescale.solver import (_apply_perturbation, _prepare_perturbation,
                              apply_pencil_fd)
from conescale.stencils import (_edge_rows, _window_weights,
                                derivative_with_cuts, fornberg_weights)
from _oracles import (collocation_constant, collocation_perturbed_first_order,
                      cylinder_mode_derivatives, cylinder_mode_solution,
                      differentiation_matrix,
                      modal_variable_solve, perturbation_per_point,
                      solve_variable_six_pass, variation_of_constants)

IDENT = MatrixPencil((np.zeros((1, 1)), np.eye(1)))
LINEAR = MatrixPencil((np.eye(1), 1j * np.eye(1)))      # lam + i
QUAD = MatrixPencil((np.eye(1), np.zeros((1, 1)), np.eye(1)))  # lam^2 + 1


@pytest.fixture(scope="module")
def grid():
    return Grid(20.0, 4096)


@pytest.fixture(scope="module")
def linear_problem(grid):
    return constant_problem(LINEAR, GaussianRhs(), grid)


class TestConstantProblem:
    def test_frequency_side_rhs_rejected(self, grid):
        rhs = RayFunction(Ray(0.0, 0j, FREQUENCY), grid, np.zeros(grid.count))
        with pytest.raises(ValidationError, match="time-side"):
            ConstantProblem(LINEAR, rhs)

    def test_on_ray_keeps_pencil_evaluator_and_weight(self, grid):
        evaluator = GaussianRhs(center=1.0)
        p = constant_problem(LINEAR, evaluator, grid, zeta=0.3j)
        p = replace(p, rhs=replace(p.rhs, weight_order=2.0))
        ray = Ray(math.pi / 8, 0.5, TIME)
        q = p.on_ray(ray)
        assert q.pencil is p.pencil and q.evaluator is evaluator
        assert q.ray == ray and q.rhs.grid == grid
        assert (q.rhs.weight_order, q.zeta) == (2.0, 0.3j)
        assert np.array_equal(q.rhs.values, evaluator(ray.points(grid.nodes)))


class TestSolveConst:
    def test_identity_returns_rhs(self, grid):
        p = constant_problem(IDENT, GaussianRhs(), grid)
        res = solve_const(p)
        assert np.max(np.abs(res.u.values - p.rhs.values)) < 1e-10

    def test_linear_against_variation_of_constants(self, grid, linear_problem):
        res = solve_const(linear_problem)
        idx = np.arange(128, 4096 - 128, 256)
        oracle = variation_of_constants(lambda s: math.exp(-s * s) + 0j,
                                        grid.nodes[idx])
        assert np.max(np.abs(res.u.values[idx, 0] - oracle)) < 1e-6

    def test_quadratic_residual_and_collocation(self, grid):
        p = constant_problem(QUAD, GaussianRhs(), grid)
        res = solve_const(p)
        assert res.residual <= 1e-6
        small = Grid(20.0, 2048)
        p2 = constant_problem(QUAD, GaussianRhs(), small)
        res2 = solve_const(p2)
        oracle = collocation_constant([1.0, 0.0, 1.0], small,
                                      p2.rhs.values[:, 0],
                                      root_imag_signs=(1, -1))
        assert np.max(np.abs(res2.u.values[:, 0] - oracle)) < 1e-6

    def test_spectral_obstruction(self, grid):
        # the line R - i passes through the eigenvalue of lam + i
        p = constant_problem(LINEAR, GaussianRhs(), grid, zeta=-1j)
        with pytest.raises(SpectralObstructionError) as err:
            solve_const(p)
        assert err.value.offenders

    def test_residual_is_independent_recheck(self, grid, linear_problem):
        res = solve_const(linear_problem)
        applied, core = apply_pencil_fd(LINEAR, res.u)
        gap = np.max(np.abs(applied[core] - linear_problem.rhs.values[core]))
        assert gap == pytest.approx(res.residual, rel=1e-9)

    def test_uniqueness_shadow_half_node_shift(self, grid):
        base = solve_const(constant_problem(LINEAR, GaussianRhs(), grid))
        shifted = solve_const(
            constant_problem(LINEAR, GaussianRhs(), grid, w=grid.spacing / 2))
        t = grid.nodes
        spline_re = scipy.interpolate.CubicSpline(t, base.u.values[:, 0].real)
        spline_im = scipy.interpolate.CubicSpline(t, base.u.values[:, 0].imag)
        t_shift = t + grid.spacing / 2.0
        keep = np.abs(t_shift) <= 19.0
        interp = spline_re(t_shift[keep]) + 1j * spline_im(t_shift[keep])
        assert np.max(np.abs(interp - shifted.u.values[keep, 0])) < 1e-5


class TestSolveScaled:
    def test_identity_pencil_exact(self, grid):
        p = constant_problem(IDENT, GaussianRhs(), grid)
        u, v, rep = solve_scaled(p, math.pi / 8)
        t = grid.nodes
        expected = np.exp(-(cmath.exp(-1j * math.pi / 8) * t) ** 2)
        assert np.max(np.abs(v.values[:, 0] - expected)) < 1e-10

    @pytest.mark.parametrize("phi", [math.pi / 16, math.pi / 8])
    def test_linear_equivalence(self, linear_problem, phi):
        u, v, rep = solve_scaled(linear_problem, phi)
        assert rep.deviation <= 1e-6
        assert rep.deviation_continuation <= 1e-6
        assert rep.residual_unscaled <= 1e-6
        assert rep.residual_scaled <= 1e-6

    def test_negative_angle(self, linear_problem):
        u, v, rep = solve_scaled(linear_problem, -math.pi / 8)
        assert rep.deviation <= 1e-6

    def test_phi_zero_makes_no_continuation(self, linear_problem, monkeypatch):
        # at phi = 0 the rotated ray is the base ray: continuing the base
        # solution there would only repeat its inverse transform
        def refuse(*args, **kwargs):
            raise AssertionError("evaluate_continuation called at phi = 0")

        monkeypatch.setattr(conescale.solver.TransformContext,
                            "evaluate_continuation", refuse)
        u, v, rep = solve_scaled(linear_problem, 0.0)
        assert math.isnan(rep.deviation_continuation)
        assert rep.deviation <= 1e-6

    def test_scale_tol_is_relative_to_solution_size(self, grid):
        # at amplitude 1e8 the absolute deviation is ~1e-7 while the
        # agreement relative to |u|_inf stays near machine precision
        p = constant_problem(LINEAR, GaussianRhs(amplitude=1e8), grid)
        u, v, rep = solve_scaled(p, math.pi / 8, scale_tol=1e-12)
        assert rep.deviation > 1e-12
        with pytest.raises(NumericalError, match="scale_tol"):
            solve_scaled(p, math.pi / 8, scale_tol=1e-20)

    def test_clearance_guard(self, grid):
        # +-i obstruct any upper cone through the origin wider than nothing
        p = constant_problem(QUAD, GaussianRhs(), grid)
        with pytest.raises(SpectralObstructionError):
            solve_scaled(p, math.pi / 2)

    def test_needs_evaluator(self, grid):
        p = constant_problem(QUAD, GaussianRhs(), grid)
        sampled = replace(p, evaluator=None)
        with pytest.raises(ValueError, match="analytic"):
            solve_scaled(sampled, math.pi / 8)

    def test_ray_energy_table_monotone_scale(self, linear_problem):
        # the demo's ray-energy table, over five rays from psi = 0 to pi/8
        energies = [derivative_energy(
            solve_const(linear_problem.on_ray(Ray(psi, 0, TIME))).u,
            linear_problem.pencil.norm_forms[::-1])
            for psi in np.linspace(0.0, math.pi / 8, 5)]
        assert all(np.isfinite(e) for e in energies)
        assert max(energies) <= 10.0 * min(energies)


@st.composite
def clear_cone_pencils(draw):
    """Pencils of degree 1 or 2 and size n <= 3 with every eigenvalue at
    modulus 1 to 3 and |Im lam| >= |lam| / sqrt(2), so that every cone of
    aperture below pi/4 at the origin is clear; plus a unit cross-section.

    A degree-2 pencil is (lam - M_1)(lam - M_2), whose eigenvalues are
    those of M_1 and M_2; each M is V diag(mu) V^{-1} with V near I.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    n, degree = draw(st.integers(1, 3)), draw(st.integers(1, 2))

    def factor():
        mu = (rng.uniform(1.0, 3.0, n) * rng.choice([-1.0, 1.0], n)
              * np.exp(1j * rng.uniform(math.pi / 4, 3 * math.pi / 4, n)))
        V = np.eye(n) + 0.3 * (rng.standard_normal((n, n))
                               + 1j * rng.standard_normal((n, n)))
        return V @ np.diag(mu) @ np.linalg.inv(V)

    ms = [factor() for _ in range(degree)]
    coeffs = ((np.eye(n), -ms[0]) if degree == 1
              else (np.eye(n), -(ms[0] + ms[1]), ms[0] @ ms[1]))
    cross = rng.standard_normal(n)
    return MatrixPencil(coeffs), cross / np.linalg.norm(cross)


@settings(max_examples=30, deadline=None)
@given(clear_cone_pencils(),
       st.sampled_from([math.pi / 32, math.pi / 16, math.pi / 12]))
def test_scaling_equivalence_property(grid, case, phi):
    pencil, cross = case
    p = constant_problem(pencil, GaussianRhs(cross_section=cross), grid)
    # solve_scaled itself enforces the scaled-versus-rotated deviation
    _, _, rep = solve_scaled(p, phi)
    dev = rep.deviation_continuation
    assert math.isnan(dev) or dev <= 1e-6


class TestCylinderClosedForm:
    """The demo-cylinder problem against its closed-form solution
    (_oracles.cylinder_mode_solution).  The base and rotated-ray solves
    take the binomial eigh route of lam^2 I + L_h, and the scaled solve
    takes QZ on e^{2i phi} lam^2 I + L_h."""

    PHI = math.pi / 16
    # about 100 times the largest error measured relative to the peak
    # (base, scaled, rotated: 3.9e-15, 4.0e-15, 4.2e-15 at n = 4; 9.5e-15,
    # 6.6e-15, 9.7e-15 at n = 16; 9.8e-14, 6.6e-14, 9.9e-14 at n = 64)
    TOL = {4: 4e-13, 16: 1e-12, 64: 1e-11}

    def demo(self, n):
        """(problem, kappa, cross) of demo-cylinder at n and PHI."""
        data = cylinder_problem_dict(n, self.PHI)
        problem = parse_problem(data).constant()
        _, h = dirichlet_laplacian(n)
        kappa = 2.0 / h * math.sin(math.pi * h / 2)
        cross = np.array([re for re, _ in data["rhs"]["cross_section"]])
        return problem, kappa, cross

    @pytest.mark.parametrize("n", [4, 16, 64])
    def test_solves_match_closed_form(self, n):
        phi = self.PHI
        problem, kappa, cross = self.demo(n)
        assert problem.pencil.scalars == (1, 0, None)
        assert problem.pencil.scaled(phi).scalars[0] != 1
        u, v, _ = solve_scaled(problem, phi)
        rot = solve_const(problem.on_ray(Ray(phi, problem.ray.offset, TIME))).u
        base_exact = cylinder_mode_solution(u.points, kappa, cross)
        # the scaled solve samples u(w + e^{-i phi} t): the rotated ray
        rot_exact = cylinder_mode_solution(rot.points, kappa, cross)
        for got, want in ((u.values, base_exact), (v.values, rot_exact),
                          (rot.values, rot_exact)):
            assert (np.max(np.abs(got - want))
                    <= self.TOL[n] * np.max(np.abs(want)))

    @pytest.mark.parametrize("n", [4, 16, 64])
    def test_continuation_matches_closed_form(self, n):
        # solve_scaled's shallow window |t| <= 20 / (xi_max |sin phi|): 66
        # nodes; errors 2.6e-12, 2.8e-12 and 3.2e-12 relative to the peak
        problem, kappa, cross = self.demo(n)
        base = solve_const(problem)
        ctx = problem.context()
        nodes = problem.rhs.grid.nodes
        shallow = nodes[np.abs(nodes) <= 20.0 / (
            ctx.dst_grid.half_width * abs(math.sin(self.PHI)))]
        assert shallow.size == 66
        points = Ray(self.PHI, problem.ray.offset, TIME).points(shallow)
        got = ctx.evaluate_continuation(base.frequency_data, points)
        want = cylinder_mode_solution(points, kappa, cross)
        assert np.max(np.abs(got - want)) <= 3e-10 * np.max(np.abs(want))

    @pytest.mark.parametrize("n", [4, 16, 64])
    def test_ray_energy_matches_closed_form(self, n):
        # the demo's ray energy against the rectangle rule of the closed
        # form's |u|^2 + |u'|^2 + |u''|^2 on the stencil core (the norm
        # forms are I): 6.2e-13 to 8.2e-13 relative
        problem, kappa, cross = self.demo(n)
        count = problem.rhs.grid.count
        for psi in (0.0, self.PHI):
            u = solve_const(problem.on_ray(
                Ray(psi, problem.ray.offset, TIME))).u
            got = derivative_energy(u, problem.pencil.norm_forms[::-1])
            orders = cylinder_mode_derivatives(u.points[5:count - 5], kappa,
                                               cross)
            want = u.grid.spacing * sum(float(np.sum(np.abs(d) ** 2))
                                        for d in orders)
            assert abs(got - want) <= 1e-10 * want


def rational_coefficients(eps, pole_scale):
    def coefficients(z):
        return [[(eps / (z ** 2 + pole_scale ** 2), np.eye(1))], None]
    return coefficients


@pytest.fixture(scope="module")
def neumann_base():
    grid = Grid(20.0, 2048)
    return constant_problem(LINEAR, GaussianRhs(center=5.0), grid)


class TestSolveVariable:
    def test_zero_perturbation_matches_const(self, neumann_base):
        vp = VariableProblem(neumann_base,
                             rational_coefficients(0.0, 3.0),
                             sector_start=-12.0)
        res = solve_variable(vp, res_tol=1e-8)
        assert len(res.residuals) == 1
        base = solve_const(neumann_base)
        assert np.max(np.abs(res.u.values - base.u.values)) < 1e-12

    def test_small_perturbation_converges(self, neumann_base):
        vp = VariableProblem(neumann_base,
                             rational_coefficients(0.05, 3.0),
                             sector_start=-12.0)
        res = solve_variable(vp, res_tol=1e-8)
        assert res.residuals[-1] <= 1e-8
        assert res.contraction_ratio <= 0.5
        ratios = [res.residuals[k + 1] / res.residuals[k]
                  for k in range(len(res.residuals) - 1)]
        assert all(r < 1.0 for r in ratios)

    def test_collocation_oracle_agreement(self, neumann_base):
        vp = VariableProblem(neumann_base,
                             rational_coefficients(0.05, 3.0),
                             sector_start=-12.0)
        res = solve_variable(vp, res_tol=1e-8)
        grid = neumann_base.rhs.grid
        oracle = collocation_perturbed_first_order(
            lambda t: 0.05 / (t ** 2 + 9.0), grid,
            neumann_base.rhs.values[:, 0])
        assert np.max(np.abs(res.u.values[:, 0] - oracle)) < 1e-6

    def test_large_perturbation_fails_contraction(self, neumann_base):
        vp = VariableProblem(neumann_base,
                             rational_coefficients(50.0, 3.0),
                             sector_start=-12.0)
        with pytest.raises(ContractionFailureError) as err:
            solve_variable(vp, res_tol=1e-8)
        res = err.value.residuals
        assert len(res) >= 2 and res[1] > res[0]

    def test_iteration_cap_is_named(self, neumann_base):
        # the residual still falls (8.6e-4, then 1.6e-6) when the two
        # sweeps run out: a cap, not a failure to contract
        vp = VariableProblem(neumann_base, rational_coefficients(0.05, 3.0),
                             sector_start=-12.0)
        with pytest.raises(ContractionFailureError) as err:
            solve_variable(vp, res_tol=1e-8, max_iter=2)
        res = err.value.residuals
        assert len(res) == 2 and res[1] < res[0]
        assert str(err.value) == (
            "Neumann iteration reached its cap of 2 sweeps before res_tol "
            f"1.000e-08 (residual trace: {res[0]:.3e}, {res[1]:.3e})")

    def test_module_example_pole_scale_ten(self, neumann_base):
        # the written example: Q_0 = 0.05 / (z^2 + 100), converges cleanly
        vp = VariableProblem(neumann_base,
                             rational_coefficients(0.05, 10.0),
                             sector_start=-12.0)
        res = solve_variable(vp, res_tol=1e-8)
        assert res.residuals[-1] <= 1e-8
        grid = neumann_base.rhs.grid
        oracle = collocation_perturbed_first_order(
            lambda t: 0.05 / (t ** 2 + 100.0), grid,
            neumann_base.rhs.values[:, 0])
        assert np.max(np.abs(res.u.values[:, 0] - oracle)) < 1e-6


def perturbed(coefficients, pencil=MatrixPencil((np.eye(2), 1j * np.eye(2))),
              count=256):
    """A VariableProblem with a fixed Gaussian rhs on Grid(20, count)."""
    n = pencil.dim
    cross = np.linspace(1.0, 0.5, n) + 0.25j * np.arange(n)
    base = constant_problem(pencil, GaussianRhs(cross_section=cross),
                            Grid(20.0, count))
    return VariableProblem(base, coefficients, sector_start=-12.0)


def applied_and_oracle(vp):
    """_apply_perturbation on the base rhs (given its transform, as a
    sweep gives it the frequency data it has just inverted), and the dense
    per-node oracle on the same projections, each transforming the rhs
    itself."""
    base = vp.base
    ctx = base.context()
    cut = base.ray.points(np.array([vp.sector_start]))[0]
    m = base.pencil.degree
    got = _apply_perturbation(vp, _prepare_perturbation(vp, base.rhs.grid),
                              base.rhs, ctx.forward(base.rhs), ctx, cut)
    projections = [halfline_projection(base.rhs, m - j, eta=base.zeta + 4j,
                                       v=cut, ctx=ctx, extra_power=m - j).values
                   for j in range(m + 1)]
    want = perturbation_per_point(
        vp.coefficients, base.ray.points(base.rhs.grid.nodes), projections)
    return got, want


class TestPerturbationSampling:
    """Q_j = sum_r phi_r(z) V_r, sampled once per ray as (profile, matrix)
    terms and applied without forming Q_j."""

    def test_matches_per_point_sampling(self):
        mix = np.array([[1.0, 0.5j], [-0.25, 2.0]])

        def coefficients(z):
            return [[(0.05 / (z ** 2 + 9.0), mix),
                     (0.02 * np.exp(-z ** 2 / 50.0), np.eye(2))],
                    [(np.ones(z.shape), np.array([[0.0, 0.01], [0.0, 0.0]]))]]

        got, want = applied_and_oracle(perturbed(coefficients))
        assert got.shape == (256, 2)
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))

    def test_zero_coefficient_dropped(self):
        def coefficients(z):
            return [[(np.zeros(z.shape), np.eye(2)),
                     (1.0 / (z ** 2 + 9.0), np.zeros((2, 2)))],
                    [(1.0 / (z ** 2 + 9.0), np.eye(2))]]

        vp = perturbed(coefficients)
        q0, q1 = _prepare_perturbation(vp, vp.base.rhs.grid)
        assert q0 == [] and len(q1) == 1
        assert q1[0][0].shape == (256,)
        assert np.array_equal(q1[0][1], np.eye(2))

    def test_wrong_shape_names_coefficient(self):
        # the profile must be exactly (N,): neither (N, 1) nor a constant
        vp = perturbed(lambda z: [None, [(np.ones((256, 1)), np.eye(2))]])
        with pytest.raises(ValidationError,
                           match=r"term 0 of Q_1 .*\(256, 1\).*\(256,\)"):
            _prepare_perturbation(vp, vp.base.rhs.grid)
        vp = perturbed(lambda z: [None, [(np.ones(z.shape), np.eye(2)),
                                            (0.5, np.eye(2))]])
        with pytest.raises(ValidationError, match=r"term 1 of Q_1 .*\(\)"):
            _prepare_perturbation(vp, vp.base.rhs.grid)

    @pytest.mark.parametrize("bad", [
        lambda z: np.ones((1, 2)),
        lambda z: np.ones(2),
        lambda z: np.float64(0.5),
        lambda z: np.ones((1, 2, 2)),
        lambda z: (1.0 / (z ** 2 + 9.0))[:, None, None] * np.eye(2),
    ])
    def test_matrix_axes_not_broadcast(self, bad):
        # a term's matrix is exactly n x n: broadcasting a size-1 axis would
        # silently turn a scalar into a matrix of ones
        vp = perturbed(lambda z: [None, [(np.ones(z.shape), bad(z))]])
        with pytest.raises(ValidationError, match=r"term 0 of Q_1 .*\(2, 2\)"):
            _prepare_perturbation(vp, vp.base.rhs.grid)

    @pytest.mark.parametrize("entry", [
        lambda z: (1.0 / (z ** 2 + 9.0))[:, None, None] * np.eye(2),
        lambda z: (1.0 / (z ** 2 + 9.0), np.eye(2)),
        lambda z: [np.eye(2)],
        lambda z: [(1.0 / (z ** 2 + 9.0), np.eye(2), 1.0)],
        lambda z: 0.5,
    ], ids=["stack", "bare_pair", "bare_matrix", "triple", "scalar"])
    def test_entry_not_terms_rejected(self, entry):
        vp = perturbed(lambda z: [None, entry(z)])
        with pytest.raises(ValidationError,
                           match=r"Q_1 must be None or a list of \(profile, "
                                 r"matrix\) terms"):
            _prepare_perturbation(vp, vp.base.rhs.grid)

    def test_count_checked(self):
        vp = perturbed(lambda z: [None])
        with pytest.raises(ValidationError, match="m \\+ 1"):
            _prepare_perturbation(vp, vp.base.rhs.grid)

    def test_non_finite_rejected(self):
        def coefficients(z):
            profile = 1.0 / (z ** 2 + 9.0)
            profile[17] = np.nan
            return [None, [(profile, np.eye(2))]]

        vp = perturbed(coefficients)
        with pytest.raises(NonFiniteSampleError, match="term 0 of Q_1"):
            _prepare_perturbation(vp, vp.base.rhs.grid)

    def test_non_finite_matrix_rejected(self):
        bad = np.array([[1.0, np.inf], [0.0, 1.0]])
        vp = perturbed(lambda z: [[(np.ones(z.shape), np.eye(2)),
                                      (np.ones(z.shape), bad)], None])
        with pytest.raises(NonFiniteSampleError, match="term 1 of Q_0"):
            _prepare_perturbation(vp, vp.base.rhs.grid)


def _profile(kind, scale):
    """A dilation-analytic profile z -> phi(z) of the drawn kind."""
    return {"zero": lambda z: np.zeros(z.shape, dtype=complex),
            "rational": lambda z: scale / (z ** 2 + 9.0),
            "gaussian": lambda z: scale * np.exp(-z ** 2 / 40.0),
            "constant": lambda z: np.full(z.shape, scale)}[kind]


_TERMS = st.lists(st.tuples(
    st.sampled_from(["zero", "rational", "gaussian", "constant"]),
    st.complex_numbers(max_magnitude=2.0, allow_nan=False,
                       allow_infinity=False),
    st.sampled_from(["identity", "zero", "dense"]),
    st.integers(0, 2 ** 16)), max_size=3)


@settings(max_examples=25, deadline=None)
@given(st.lists(st.one_of(st.none(), _TERMS), min_size=3, max_size=3))
def test_apply_matches_dense_per_node(slots):
    """Random terms (identity, zero, dense, several per slot) on a degree-2
    pencil of dimension 3 against Q_j(z_k) formed densely per node."""
    n = 3

    def matrix(kind, seed):
        rng = np.random.default_rng(seed)
        return {"identity": np.eye(n), "zero": np.zeros((n, n)),
                "dense": rng.standard_normal((n, n))
                + 1j * rng.standard_normal((n, n))}[kind]

    drawn = [None if terms is None else
             [(_profile(kind, scale), matrix(mkind, seed))
              for kind, scale, mkind, seed in terms]
             for terms in slots]

    def coefficients(z):
        return [None if terms is None else [(f(z), v) for f, v in terms]
                for terms in drawn]

    pencil = MatrixPencil((np.eye(n), np.zeros((n, n)), 4.0 * np.eye(n)))
    got, want = applied_and_oracle(perturbed(coefficients, pencil, 128))
    assert np.max(np.abs(got - want)) <= 1e-13 * max(1.0, np.max(np.abs(want)))


def cylinder_variable(n, terms, seed=1):
    """The perturbed cylinder lam^2 I + L_h at dimension n on a small grid,
    with a seeded random real cross-section (the demo's sin(pi x) is the
    first eigenvector of L_h and would excite one mode only); terms(z, L)
    gives Q_0's terms, and Q_1 = Q_2 = 0."""
    lap, _ = dirichlet_laplacian(n)
    rng = np.random.default_rng(seed)
    cross = rng.standard_normal(n)
    pencil = MatrixPencil((np.eye(n), np.zeros((n, n)), lap))
    base = constant_problem(
        pencil, GaussianRhs(cross_section=cross / np.linalg.norm(cross)),
        Grid(20.0, 2048))
    return VariableProblem(base, lambda z: [terms(z, lap), None, None],
                           sector_start=-12.0)


def _non_commuting(z, lap):
    g = np.random.default_rng(7).standard_normal(lap.shape)
    return [(0.05 / (z ** 2 + 9.0), (g + g.T) / np.linalg.norm(g + g.T, 2))]


class TestModalOracle:
    """The quasicylindrical example at n > 1 against its own separation of
    variables: each cross-section mode solved as a 1 x 1 problem."""

    TOL = 1e-12     # one tight res_tol for the full and the modal solves
    PHI = math.pi / 16

    def compare(self, vp):
        full = solve_variable(vp, res_tol=self.TOL).u.values
        cert = continuation_certificate(vp, self.PHI, offset=1.0, n_angles=3,
                                        res_tol=self.TOL)
        energies = np.array([e for _, e in cert.rows])
        u, modal_energies, ratio = modal_variable_solve(vp, self.PHI, 1.0, 3,
                                                        self.TOL)
        assert cert.verdict == "holds"
        return (np.max(np.abs(full - u)) / np.max(np.abs(u)),
                np.max(np.abs(energies - modal_energies) / modal_energies),
                abs(cert.ratio - ratio) / ratio)

    @pytest.mark.parametrize("n", [4, 8, 16])
    def test_identity_perturbation_splits(self, n):
        vp = cylinder_variable(
            n, lambda z, lap: [(0.05 / (z ** 2 + 9.0), np.eye(n))])
        assert max(self.compare(vp)) <= 1e-10

    @pytest.mark.parametrize("n", [4, 16])
    def test_polynomial_in_laplacian_splits(self, n):
        def terms(z, lap):
            scaled = lap / np.linalg.norm(lap, 2)
            return [(0.05 / (z ** 2 + 9.0), 0.5 * (np.eye(n) + scaled)),
                    (0.03 * np.exp(-z ** 2 / 40.0), scaled @ scaled)]

        assert max(self.compare(cylinder_variable(n, terms))) <= 1e-10

    def test_non_commuting_matrix_does_not_split(self):
        u_gap, energy_gap, _ = self.compare(cylinder_variable(8, _non_commuting))
        assert u_gap > 1e-6 and energy_gap > 1e-6


def demo_variable(n, eps, matrix):
    """The demo-cylinder pencil lam^2 I + L_h at n and phi = pi/16 with a
    seeded random unit cross-section (the demo's own is one sine mode, which
    every iterate keeps, so it is flat in n whatever the perturbation), and
    one perturbing term eps / (z^2 + 9) matrix(L_h) on D^0 (Q_2)."""
    parsed = parse_problem(cylinder_problem_dict(n, math.pi / 16))
    cross = np.random.default_rng(0).standard_normal(n)
    base = constant_problem(
        parsed.pencil, GaussianRhs(cross_section=cross / np.linalg.norm(cross)),
        parsed.grid, zeta=parsed.zeta)
    term = matrix(parsed.pencil.coefficients[-1])
    return VariableProblem(
        base, lambda z: [None, None, [(eps / (z ** 2 + 9.0), term)]],
        sector_start=-0.6 * parsed.grid.half_width)


class TestRelativelyBounded:
    """The paper's unbounded coefficients on the discrete cylinder: |L_h|
    grows like 4 (n + 1)^2, and the Neumann ratio stays uniform in n exactly
    when the perturbation is bounded relative to the pencil."""

    RES_TOL = 1e-6

    @pytest.mark.parametrize("eps", [0.05, 4.5])
    def test_laplacian_on_d0_is_uniform_in_n(self, eps):
        # q = 0.00537, 0.00544, 0.00550 at eps 0.05 (3 sweeps each), and
        # 0.485, 0.493, 0.496 at eps 4.5
        runs = [solve_variable(demo_variable(n, eps, lambda lap: lap),
                               res_tol=self.RES_TOL) for n in (8, 16, 32)]
        ratios = [r.contraction_ratio for r in runs]
        assert max(ratios) <= 1.05 * min(ratios) < 1.0
        assert len({len(r.residuals) for r in runs}) == 1

    def test_norm_times_identity_degrades_with_n(self):
        # |L_h|_2 I is not bounded relative to the pencil: q = 0.161 at
        # n = 8 and 0.586 at n = 16, and no contraction at n = 32
        def norm_eye(lap):
            return np.linalg.norm(lap, 2) * np.eye(lap.shape[0])

        q8, q16 = (solve_variable(demo_variable(n, 0.05, norm_eye),
                                  res_tol=self.RES_TOL).contraction_ratio
                   for n in (8, 16))
        assert q16 > 3.0 * q8
        with pytest.raises(ContractionFailureError):
            solve_variable(demo_variable(32, 0.05, norm_eye),
                           res_tol=self.RES_TOL)

    @pytest.mark.parametrize("n", [8, 16, 32])
    def test_threshold_does_not_move_with_n(self, n):
        with pytest.raises(ContractionFailureError):
            solve_variable(demo_variable(n, 12.0, lambda lap: lap),
                           res_tol=self.RES_TOL)

    def test_laplacian_on_d0_matches_modal_oracle(self):
        # L_h commutes with the pencil, so the modal solve is exact: 4.1e-15
        vp = demo_variable(8, 0.05, lambda lap: lap)
        full = solve_variable(vp, res_tol=self.RES_TOL).u.values
        u, _, _ = modal_variable_solve(vp, math.pi / 16, 1.0, 3, self.RES_TOL)
        assert np.max(np.abs(full - u)) <= 5e-13 * np.max(np.abs(u))


def _neumann_cert_problem():
    """The benchmark's neumann-cert problem at its seed-0 inputs: lam + i,
    a rational_decay perturbation, N = 4096."""
    return parse_problem({
        "schema_version": 1,
        "pencil": {"degree": 1, "dim": 1,
                   "coefficients": [[[[1.0, 0.0]]], [[[0.0, 1.0]]]]},
        "geometry": {"cone": {"angle": math.pi / 6, "vertex": [0.0, 2.0],
                              "orientation": 1},
                     "weight": [0.0, 0.0]},
        "grid": {"half_width": 20.0, "count": 4096},
        "rhs": {"kind": "shifted_gaussian", "center": [5.0, 0.0]},
        "perturbation": {"kind": "rational_decay", "epsilon": 0.05,
                         "pole_scale": 3.0},
        "solver": {"phi_list": [math.pi / 16], "res_tol": 1e-8}}).variable()


class TestFivePassSweep:
    """The sweep hands the frequency data it has just inverted to the
    projection; the six-pass sweep, which transforms u again, is the
    oracle.  forward(inverse(uhat)) equals uhat only to rounding, so the
    two agree to rounding, not bit for bit."""

    TOL = 1e-12

    def compare(self, vp, res_tol, n_angles, monkeypatch):
        new = solve_variable(vp, res_tol=res_tol)
        old = solve_variable_six_pass(vp, res_tol)
        cert = continuation_certificate(vp, math.pi / 16, offset=1.0,
                                        n_angles=n_angles, res_tol=res_tol)
        monkeypatch.setattr(
            conescale.solver, "solve_variable",
            lambda vp, res_tol, max_iter: solve_variable_six_pass(
                vp, res_tol, max_iter))
        want = continuation_certificate(vp, math.pi / 16, offset=1.0,
                                        n_angles=n_angles, res_tol=res_tol)
        assert cert.verdict == want.verdict == "holds"
        assert np.max(np.abs(new.u.values - old.u.values)) <= \
            self.TOL * np.max(np.abs(old.u.values))
        # a residual is already relative, to max(1, |F|_inf): the traces
        # agree to 1e-12 of that scale (they differ by about 2e-14 here,
        # and the last, 3e-9, in its sixth digit)
        assert len(new.residuals) == len(old.residuals) >= 3
        assert np.max(np.abs(np.subtract(new.residuals, old.residuals))) <= \
            self.TOL
        assert abs(cert.ratio - want.ratio) <= self.TOL * want.ratio
        for (_, e_new), (_, e_old) in zip(cert.rows, want.rows):
            assert abs(e_new - e_old) <= self.TOL * e_old

    def test_neumann_cert_problem(self, monkeypatch):
        self.compare(_neumann_cert_problem(), 1e-8, 9, monkeypatch)

    def test_non_identity_matrix_at_n4(self, monkeypatch):
        self.compare(cylinder_variable(4, _non_commuting), 1e-10, 3,
                     monkeypatch)


class TestCachedStencilWeights:
    @pytest.mark.parametrize("first, width, m", [(-4, 9, 1), (0, 9, 1),
                                                 (-8, 9, 2), (-3, 7, 0)])
    def test_equal_to_fresh_and_read_only(self, first, width, m):
        w = _window_weights(first, width, m)
        fresh = fornberg_weights(0.0, np.arange(first, first + width,
                                                dtype=float), m)
        assert np.array_equal(w, fresh)
        assert _window_weights(first, width, m) is w
        with pytest.raises(ValueError, match="read-only"):
            w[0] = 1.0

    @pytest.mark.parametrize("m", [1, 2])
    def test_cut_rows_match_dense_oracle(self, m):
        # rows within the centered stencil's half width of an edge or the
        # cut take the windowed weights; the oracle builds the same rows
        # densely
        t = np.linspace(-1.0, 1.0, 64)
        spacing = t[1] - t[0]
        values = np.where(t < 0.0, np.sin(t), np.cos(3.0 * t))[:, None]
        out, _ = derivative_with_cuts(values, spacing, (m,), acc=6, cuts=(32,))
        ref = differentiation_matrix(64, spacing, m, acc=6, cuts=(32,),
                                     reach=(m + 6) // 2) @ values
        # rounding grows like |values| / spacing^m
        assert np.max(np.abs(out[:, :, 0] - ref)) <= \
            1e-12 * np.max(np.abs(values)) / spacing ** m

    def test_edge_rows_built_once_and_read_only(self):
        # order 1 at accuracy 6 in a call whose widest stencil reaches 4
        rows, index, weights = _edge_rows(64, 1, 6, (32,), 4)
        assert _edge_rows(64, 1, 6, (32,), 4)[0] is rows
        assert list(rows) == [*range(0, 4), *range(28, 36), *range(60, 64)]
        assert index.shape == (rows.size, 7)
        assert weights.shape == (rows.size, 1, 7)
        # no window straddles the cut
        assert np.all((index[:, 0] >= 32) | (index[:, -1] < 32))
        for arr in (rows, index, weights):
            with pytest.raises(ValueError, match="read-only"):
                arr[...] = 0


@st.composite
def cut_stencil_cases(draw):
    """Orders, accuracies, columns and 0-3 cuts, some near the edges."""
    orders = tuple(draw(st.lists(st.sampled_from([0, 1, 2, 3]), min_size=1,
                                 max_size=4, unique=True)))
    acc = draw(st.sampled_from([2, 4, 6, 8]))
    count = draw(st.integers(40, 96))
    near_edge = st.sampled_from([1, 2, 3, count - 3, count - 2, count - 1])
    cuts = draw(st.lists(st.one_of(st.integers(1, count - 1), near_edge),
                         max_size=3, unique=True))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    # no columns: 1-D samples; 17 columns take the per-window product
    shape = (count,) + draw(st.sampled_from([(), (1,), (2,), (3,), (17,)]))
    values = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    return orders, acc, tuple(cuts), values


@settings(max_examples=150, deadline=None)
@given(cut_stencil_cases())
def test_cut_rows_match_dense_oracle_property(case):
    """Every row of every order derivative_with_cuts returns, centered
    core and one-sided rows near the edges and the cuts alike, against the
    dense matrix built from the same windows, for 1-D samples, for 1 to 3
    columns and for 17, with and without cuts; a segment too short for
    some order's stencil fails both ways."""
    orders, acc, cuts, values = case
    count = values.shape[0]
    spacing = 0.05
    half = max((m + acc) // 2 if m else 0 for m in orders)
    try:
        refs = [differentiation_matrix(count, spacing, m, acc=acc, cuts=cuts,
                                       reach=half) @ values for m in orders]
    except ConfigurationError:
        with pytest.raises(ConfigurationError):
            derivative_with_cuts(values, spacing, orders, acc=acc, cuts=cuts)
        return
    out, core = derivative_with_cuts(values, spacing, orders, acc=acc,
                                     cuts=cuts)
    assert out.shape == values.shape + (len(orders),)
    assert core == slice(half, count - half)
    for i, (m, ref) in enumerate(zip(orders, refs)):
        assert np.max(np.abs(out[..., i] - ref)) <= \
            1e-12 * np.max(np.abs(values)) / spacing ** m


class TestLocalizeTraces:
    def test_zero_traces(self):
        loc = localize_traces([np.zeros(2)] * 3, cone=math.pi / 8)
        assert np.all(loc.coefficients == 0.0)
        assert np.all(loc(np.array([0.3 + 0.1j])) == 0.0)

    def test_exp_it_traces(self):
        # D^j e^{it} at 0 equals 1 for every j
        traces = [np.array([1.0 + 0j])] * 3
        loc = localize_traces(traces, cone=math.pi / 8)
        for j in range(3):
            assert abs(loc.derivative_at_vertex(j)[0] - 1.0) < 1e-10

    def test_single_trace_explicit_gamma(self):
        loc = localize_traces([np.array([1.0, 0.0])], cone=math.pi / 8,
                              gamma=-1.0)
        assert loc.gamma == -1.0
        val = loc(np.array([0.0]))[0]
        assert np.allclose(val, [1.0, 0.0])
        assert np.allclose(loc(np.array([1.0]))[0],
                           [math.exp(-1.0), 0.0])

    def test_vertex_derivative_kill(self):
        # subtracting the localizer kills the traces: finite differences of
        # (u - Phi) at the vertex vanish through order ell-1
        traces = [np.array([1.0 + 0j])] * 3
        loc = localize_traces(traces, cone=math.pi / 8)
        h = 0.01
        stencil = np.arange(-6, 7) * h
        u = np.exp(1j * stencil)
        phi = loc(stencil.astype(complex))[:, 0]
        diff = u - phi
        from conescale.stencils import fornberg_weights
        for j in range(3):
            w = fornberg_weights(0.0, stencil, j)
            val = (-1j) ** j * (w @ diff)
            assert abs(val) <= 1e-6

    def test_inadmissible_gamma_rejected(self):
        with pytest.raises(LocalizationFailureError):
            localize_traces([np.array([1.0])], cone=math.pi / 8,
                            gamma=+1.0)

    def test_search_exhausted_raises(self):
        # with zeta = 100i the weight e^{-i zeta z} = e^{100 z} outgrows
        # every candidate e^{gamma z}, |gamma| <= 64, on the forward rays
        with pytest.raises(LocalizationFailureError, match="search set"):
            localize_traces([np.array([1.0])], cone=math.pi / 8, zeta=100j)

    def test_search_is_deterministic(self):
        a = localize_traces([np.array([1.0])], cone=math.pi / 8)
        b = localize_traces([np.array([1.0])], cone=math.pi / 8)
        assert a.gamma == b.gamma == -1.0


class TestContinuationCertificate:
    def test_zero_rhs(self, grid):
        p = constant_problem(LINEAR, GaussianRhs(amplitude=0.0), grid)
        cert = continuation_certificate(p, math.pi / 8, offset=1.0)
        assert all(v == 0.0 for _, v in cert.rows)

    def test_unperturbed_holds(self, linear_problem):
        cert = continuation_certificate(linear_problem, math.pi / 8,
                                        offset=1.0)
        assert cert.verdict == "holds"
        assert cert.ratio <= 2.0

    def test_pole_crossing_blows_up(self, grid):
        p = constant_problem(LINEAR, PoleRhs(5.0 + 0.25j), grid)
        cert = continuation_certificate(p, -math.pi / 8, offset=1.0,
                                        n_angles=17)
        assert cert.verdict == "blow-up"

    def test_pole_crossing_reasons_kept(self, grid):
        p = constant_problem(LINEAR, PoleRhs(5.0 + 0.25j), grid)
        cert = continuation_certificate(p, -math.pi / 8, offset=1.0,
                                        n_angles=17)
        blown_rows = [psi for psi, v in cert.rows if not np.isfinite(v)]
        assert blown_rows
        assert [psi for psi, _ in cert.blown] == blown_rows
        assert all("residual" in reason for _, reason in cert.blown)

    def test_holding_certificate_has_no_reasons(self, linear_problem):
        cert = continuation_certificate(linear_problem, math.pi / 8,
                                        offset=1.0)
        assert cert.blown == ()

    def test_no_rays_rejected(self, linear_problem):
        with pytest.raises(ConfigurationError, match="n_angles"):
            continuation_certificate(linear_problem, math.pi / 8, n_angles=0)

    def test_non_finite_energy_is_blow_up(self, linear_problem, monkeypatch):
        energy = conescale.solver.derivative_energy
        calls = []

        def nan_on_second_ray(*args, **kwargs):
            calls.append(1)
            return math.nan if len(calls) == 2 else energy(*args, **kwargs)

        monkeypatch.setattr(conescale.solver, "derivative_energy", nan_on_second_ray)
        cert = continuation_certificate(linear_problem, math.pi / 8,
                                        offset=1.0, n_angles=3)
        assert cert.verdict == "blow-up"
        assert cert.rows[1] == (cert.rows[1][0], math.inf)
        assert cert.blown == ((cert.rows[1][0], "ray energy is nan"),)

    def test_programming_error_propagates(self, linear_problem, monkeypatch):
        def broken(*args, **kwargs):
            raise ValueError("not a numerical failure")

        monkeypatch.setattr(conescale.solver, "derivative_energy", broken)
        with pytest.raises(ValueError, match="not a numerical failure"):
            continuation_certificate(linear_problem, math.pi / 8, offset=1.0)


class TestRayEnergy:
    def gaussian(self, zeta):
        grid = Grid(40.0, 2048)
        return RayFunction(Ray(0.0, 0j, TIME), grid,
                           np.exp(-grid.nodes ** 2), 0.0, zeta)

    def test_weight_past_exp_range_over_decayed_tail(self):
        # e^{20 t} overflows for t > 35.5, where u has underflowed to zero;
        # the integrand e^{20 t - 2 t^2} (1 + 4 t^2) itself peaks near e^50
        energy = derivative_energy(self.gaussian(-10j), LINEAR.norm_forms[::-1])
        exact = 102.0 * math.sqrt(math.pi / 2.0) * math.exp(50.0)
        assert energy == pytest.approx(exact, rel=1e-5)

    def test_overflowing_integrand_raises(self):
        # e^{80 t - 2 t^2} peaks at e^800
        with pytest.raises(WeightOverflowError):
            derivative_energy(self.gaussian(-40j), LINEAR.norm_forms[::-1])


class TestPerturbedCertificate:
    def test_variable_certificate_holds(self, neumann_base):
        vp = VariableProblem(neumann_base,
                             rational_coefficients(0.05, 3.0),
                             sector_start=-12.0)
        cert = continuation_certificate(vp, math.pi / 16,
                                        offset=1.0, n_angles=5,
                                        res_tol=1e-6)
        assert cert.verdict == "holds"
        assert cert.ratio <= 10.0
