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
from conescale.solver import _prepare_perturbation, apply_pencil_fd
from conescale.stencils import (_window_weights, derivative_with_cuts,
                                fornberg_weights)
from _oracles import (collocation_constant, collocation_perturbed_first_order,
                      differentiation_matrix, perturbation_per_point,
                      variation_of_constants)

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

    def test_scale_tol_is_relative_to_solution_size(self, grid):
        # at amplitude 1e8 the absolute deviation is ~1e-7 while the
        # agreement relative to |u|_inf stays near machine precision
        p = constant_problem(LINEAR, GaussianRhs(amplitude=1e8), grid)
        u, v, rep = solve_scaled(p, math.pi / 8, scale_tol=1e-12,
                                 ray_table_angles=2)
        assert rep.deviation > 1e-12
        with pytest.raises(NumericalError, match="scale_tol"):
            solve_scaled(p, math.pi / 8, scale_tol=1e-20,
                         ray_table_angles=2)

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
        u, v, rep = solve_scaled(linear_problem, math.pi / 8)
        energies = [e for _, e in rep.ray_norms]
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
    _, _, rep = solve_scaled(p, phi, ray_table_angles=2)
    dev = rep.deviation_continuation
    assert math.isnan(dev) or dev <= 1e-6


def rational_coefficients(eps, pole_scale):
    def coefficients(z):
        return [(eps / (z ** 2 + pole_scale ** 2))[:, None, None],
                np.zeros((1, 1))]
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


class TestPerturbationSampling:
    """Q_j sampled once per ray on the array of nodes."""

    PENCIL = MatrixPencil((np.eye(2), 1j * np.eye(2)))

    def problem(self, coefficients):
        base = constant_problem(self.PENCIL,
                                GaussianRhs(cross_section=[1.0, 0.5j]),
                                Grid(20.0, 256))
        return VariableProblem(base, coefficients, sector_start=-12.0)

    def test_matches_per_point_sampling(self):
        mix = np.array([[1.0, 0.5j], [-0.25, 2.0]])

        def coefficients(z):
            return [(0.05 / (z ** 2 + 9.0))[:, None, None] * mix,
                    np.array([[0.0, 0.01], [0.0, 0.0]])]

        vp = self.problem(coefficients)
        grid = vp.base.rhs.grid
        got = _prepare_perturbation(vp, grid)
        want = perturbation_per_point(coefficients,
                                      vp.base.ray.points(grid.nodes), 2)
        assert len(got) == 2
        for q, ref in zip(got, want):
            assert q.shape == (256, 2, 2)
            assert np.array_equal(q, ref)

    def test_zero_coefficient_dropped(self):
        vp = self.problem(lambda z: [np.zeros((2, 2)),
                                     (1.0 / (z ** 2 + 9.0))[:, None, None]
                                     * np.eye(2)])
        q0, q1 = _prepare_perturbation(vp, vp.base.rhs.grid)
        assert q0 is None and q1.shape == (256, 2, 2)

    def test_wrong_shape_names_coefficient(self):
        vp = self.problem(lambda z: [np.zeros((2, 2)), np.ones((3, 2, 2))])
        with pytest.raises(ValueError, match=r"Q_1 .*\(256, 2, 2\)"):
            _prepare_perturbation(vp, vp.base.rhs.grid)

    @pytest.mark.parametrize("bad", [
        lambda z: (1.0 / (z ** 2 + 9.0))[:, None, None],      # (N, 1, 1)
        lambda z: np.ones((1, 2)),
        lambda z: np.ones(2),
        lambda z: np.float64(0.5),
        lambda z: np.ones((2, 256, 2, 2)),
    ])
    def test_matrix_axes_not_broadcast(self, bad):
        vp = self.problem(lambda z: [np.zeros((2, 2)), bad(z)])
        with pytest.raises(ValueError, match=r"Q_1 .*\(256, 2, 2\)"):
            _prepare_perturbation(vp, vp.base.rhs.grid)

    def test_count_checked(self):
        vp = self.problem(lambda z: [np.zeros((2, 2))])
        with pytest.raises(ValueError, match="m \\+ 1"):
            _prepare_perturbation(vp, vp.base.rhs.grid)

    def test_non_finite_rejected(self):
        def coefficients(z):
            q = (1.0 / (z ** 2 + 9.0))[:, None, None] * np.eye(2)
            q[17, 1, 0] = np.nan
            return [np.zeros((2, 2)), q]

        vp = self.problem(coefficients)
        with pytest.raises(NonFiniteSampleError, match="Q_1"):
            _prepare_perturbation(vp, vp.base.rhs.grid)


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
        # rows within one stencil width of an edge or the cut take the
        # windowed weights; the oracle builds the same windows densely
        t = np.linspace(-1.0, 1.0, 64)
        spacing = t[1] - t[0]
        values = np.where(t < 0.0, np.sin(t), np.cos(3.0 * t))[:, None]
        out, _ = derivative_with_cuts(values, spacing, m, acc=6, cuts=(32,))
        ref = differentiation_matrix(64, spacing, m, acc=6, cuts=(32,)) @ values
        rows = np.r_[0:8, 24:40, 56:64]
        # rounding grows like |values| / spacing^m
        assert np.max(np.abs(out[rows] - ref[rows])) <= \
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
