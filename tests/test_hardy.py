import cmath
import gc
import math
import weakref

import numpy as np
import pytest

from conescale import (Cone, ConeFunction, Grid, IllConditionedKernelError,
                       Ray, RayFunction, TIME, TransformContext,
                       ValidationError, WeightOverflowError,
                       cauchy_reconstruct, membership_scan,
                       paley_wiener_check, project_halfline,
                       projection_idempotence_check)
from conescale.hardy import _cut_plan, halfline_projection
from conftest import gaussian_on

GAUSS = lambda lam: np.exp(-lam ** 2 / 2.0)


@pytest.fixture(scope="module")
def cone_pi6_gauss():
    # odd node count puts a sample at the cone vertex, which the Cauchy
    # contour uses as its corner
    grid = Grid(20.0, 16385)
    return ConeFunction.from_callable(Cone(math.pi / 6, 0j, 1), GAUSS, grid,
                                      n_angles=5)


class TestMembership:
    def test_zero_function(self):
        grid = Grid(20.0, 513)
        cf = ConeFunction.from_callable(Cone(math.pi / 6, 0j, 1),
                                        lambda lam: np.zeros(lam.shape), grid)
        rep = membership_scan(cf)
        assert rep.verdict == "member-consistent"
        assert rep.sup_norm == 0.0

    def test_gaussian_inside_quarter_turn(self):
        grid = Grid(20.0, 4097)
        cf = ConeFunction.from_callable(Cone(math.pi / 6, 0j, 1), GAUSS, grid)
        rep = membership_scan(cf)
        assert rep.verdict == "member-consistent"
        assert rep.ratio <= 10.0

    def test_gaussian_past_quarter_turn_violated(self):
        grid = Grid(20.0, 4097)
        cf = ConeFunction.from_callable(Cone(3 * math.pi / 8, 0j, 1), GAUSS,
                                        grid)
        rep = membership_scan(cf)
        assert rep.verdict == "violated"
        assert rep.diagnostics

    def test_sup_includes_boundary(self):
        grid = Grid(20.0, 4097)
        cf = ConeFunction.from_callable(Cone(math.pi / 6, 0j, 1), GAUSS, grid)
        rep = membership_scan(cf)
        assert rep.sup_norm >= rep.per_angle_norms[0] - 1e-15
        assert rep.sup_norm >= rep.per_angle_norms[-1] - 1e-15

    def test_needs_five_angles(self):
        grid = Grid(20.0, 513)
        cf = ConeFunction.from_callable(Cone(math.pi / 6, 0j, 1), GAUSS, grid,
                                        n_angles=3)
        with pytest.raises(ValueError):
            membership_scan(cf)

    def test_modulus_of_continuity_shadow(self):
        # boundary samples of a member-consistent function with order > 1/2
        # obey |F(t+dt) - F(t)| <= C sqrt(dt) with C stable under refinement
        estimates = []
        for count in (2049, 4097):
            grid = Grid(20.0, count)
            cf = ConeFunction.from_callable(Cone(math.pi / 6, 0j, 1), GAUSS,
                                            grid, weight_order=1.0)
            boundary = cf.rays[0].values[:, 0]
            diffs = np.max(np.abs(np.diff(boundary)))
            estimates.append(float(diffs) / math.sqrt(grid.spacing))
        assert estimates[1] <= estimates[0] * 1.1


def test_rays_differing_in_weight_refused():
    grid = Grid(20.0, 513)
    cf = ConeFunction.from_callable(Cone(math.pi / 6, 0j, 1), GAUSS, grid,
                                    n_angles=5)
    rays = cf.rays[:-1] + (RayFunction(cf.rays[-1].ray, grid,
                                       cf.rays[-1].values, 0.0, 0.5j),)
    with pytest.raises(ValidationError, match="and the weight"):
        ConeFunction(cf.cone, cf.angles, rays)


class TestCauchyReconstruct:
    def test_zero_boundary(self):
        grid = Grid(20.0, 4097)
        cf = ConeFunction.from_callable(Cone(math.pi / 6, 0j, 1),
                                        lambda lam: np.zeros(lam.shape), grid,
                                        n_angles=5)
        res = cauchy_reconstruct(cf, 0.5 * cmath.exp(1j * math.pi / 12))
        assert np.all(res.value == 0.0)

    @pytest.mark.parametrize("lam", [
        0.5 * cmath.exp(1j * math.pi / 12),
        0.8 * cmath.exp(1j * math.pi / 12),
        1.2 * cmath.exp(1j * math.pi / 24),
    ])
    def test_gaussian_interior(self, cone_pi6_gauss, lam):
        res = cauchy_reconstruct(cone_pi6_gauss, lam)
        assert abs(res.value[0] - GAUSS(np.array([lam]))[0]) < 1e-6

    def test_lower_nappe(self, cone_pi6_gauss):
        lam = -0.5 * cmath.exp(1j * math.pi / 12)
        res = cauchy_reconstruct(cone_pi6_gauss, lam)
        assert abs(res.value[0] - GAUSS(np.array([lam]))[0]) < 1e-6

    def test_rational_with_negative_order(self):
        func = lambda lam: 1.0 / (lam + 2j) ** 2
        grid = Grid(20.0, 16385)
        cf = ConeFunction.from_callable(Cone(math.pi / 6, 0j, 1), func, grid,
                                        n_angles=5)
        lam = 0.3 * cmath.exp(1j * math.pi / 12)
        res = cauchy_reconstruct(cf, lam, s=-2,
                                 eta=-cmath.exp(1j * math.pi / 12))
        assert abs(res.value[0] - func(np.array([lam]))[0]) < 1e-6
        assert res.tail_estimate < 1e-5

    def test_refinement_order(self):
        lam = 0.5 * cmath.exp(1j * math.pi / 12)
        errs = []
        for count in (8193, 16385):
            grid = Grid(20.0, count)
            cf = ConeFunction.from_callable(Cone(math.pi / 6, 0j, 1), GAUSS,
                                            grid, n_angles=5)
            res = cauchy_reconstruct(cf, lam)
            errs.append(abs(res.value[0] - GAUSS(np.array([lam]))[0]))
        assert math.log2(errs[0] / errs[1]) >= 1.8

    def test_even_grid_second_order(self):
        # an even node count has no vertex node: the samples sit at
        # (k + 1/2) h, and the contour must keep second order there too
        # (criterion 6's points and tolerances, at N = 8192 and 16384)
        points = [0.5 * cmath.exp(1j * math.pi / 12),
                  0.8 * cmath.exp(1j * math.pi / 12),
                  1.2 * cmath.exp(1j * math.pi / 24),
                  0.6 * cmath.exp(1j * math.pi / 8),
                  -0.9 * cmath.exp(1j * math.pi / 12)]
        errs = []
        for count in (8192, 16384):
            cf = ConeFunction.from_callable(Cone(math.pi / 6, 0j, 1), GAUSS,
                                            Grid(20.0, count), n_angles=5)
            errs.append([abs(cauchy_reconstruct(cf, lam).value[0]
                             - GAUSS(np.array([lam]))[0]) for lam in points])
        assert max(errs[1]) <= 1e-6
        assert math.log2(errs[0][0] / errs[1][0]) >= 1.8

    def test_overflowing_integrand_names_its_node(self):
        # w = -50i makes the kernel e^{50 (mu - lam)}, e^{990} at mu = 20:
        # the sum raises at that node instead of returning nan
        cf = ConeFunction.from_callable(Cone(math.pi / 6, 0j, 1),
                                        lambda lam: np.ones(lam.shape),
                                        Grid(20.0, 4097), n_angles=3,
                                        weight_number=-50j)
        with pytest.raises(WeightOverflowError) as exc:
            cauchy_reconstruct(cf, 0.5 * cmath.exp(1j * math.pi / 12))
        assert exc.value.point == 20.0 and exc.value.node_index == 2048

    def test_point_too_close_to_boundary(self, cone_pi6_gauss):
        with pytest.raises(IllConditionedKernelError):
            cauchy_reconstruct(cone_pi6_gauss, 0.5 + 1e-5j)

    def test_point_outside_rejected(self, cone_pi6_gauss):
        with pytest.raises(ValueError, match="not strictly inside the cone"):
            cauchy_reconstruct(cone_pi6_gauss, 1j)

    def test_vertex_rejected(self, cone_pi6_gauss):
        with pytest.raises(ValueError, match="not strictly inside the cone"):
            cauchy_reconstruct(cone_pi6_gauss, 0j)

    @pytest.mark.parametrize("eta", [
        -0.7 * cmath.exp(1j * math.pi / 12), 1j, 0j,
    ], ids=["same-nappe", "outside", "vertex"])
    def test_eta_off_opposite_nappe(self, cone_pi6_gauss, eta):
        lam = -0.5 * cmath.exp(1j * math.pi / 12)
        with pytest.raises(ValueError, match="opposite"):
            cauchy_reconstruct(cone_pi6_gauss, lam, s=-1, eta=eta)

    def test_eta_must_be_opposite(self, cone_pi6_gauss):
        lam = 0.5 * cmath.exp(1j * math.pi / 12)
        with pytest.raises(ValueError, match="opposite"):
            cauchy_reconstruct(cone_pi6_gauss, lam, s=-1,
                               eta=0.7 * cmath.exp(1j * math.pi / 12))


@pytest.fixture(scope="module")
def grid2048():
    return Grid(20.0, 2048)


@pytest.fixture(scope="module")
def tail_gauss(grid2048):
    # centered at +6 so the cut at 0 sits where the samples are ~1.5e-8
    t = grid2048.nodes
    return RayFunction(Ray(0.0, 0j, TIME), grid2048,
                       np.exp(-(t - 6.0) ** 2 / 2.0))


class TestProjections:
    def test_forward_supported_unchanged(self, grid2048):
        t = grid2048.nodes
        f = RayFunction(Ray(0.0, 0j, TIME), grid2048,
                        np.where(t >= 0, np.exp(-t), 0.0).astype(complex))
        out = project_halfline(f, 0, v=0j)
        assert np.max(np.abs(out.values - f.values)) <= 1e-12

    def test_backward_supported_killed(self, grid2048):
        t = grid2048.nodes
        f = RayFunction(Ray(0.0, 0j, TIME), grid2048,
                        np.where(t < 0, np.exp(t), 0.0).astype(complex))
        out = project_halfline(f, 0, v=0j)
        assert np.max(np.abs(out.values)) <= 1e-12

    def test_indicator_oracle(self, grid2048):
        f = gaussian_on(grid2048)
        out = project_halfline(f, 0, v=0j)
        t = grid2048.nodes
        oracle = np.where(t >= 0, f.values[:, 0], 0.0)
        assert np.array_equal(out.values[:, 0], oracle)

    def test_mass_split_exact(self, grid2048):
        f = gaussian_on(grid2048)
        kept = project_halfline(f, 0, v=0j).values
        rest = f.values - kept
        total = np.sum(np.abs(f.values) ** 2)
        split = np.sum(np.abs(kept) ** 2) + np.sum(np.abs(rest) ** 2)
        assert split == pytest.approx(total, rel=1e-15)

    def test_positive_order_rejected(self, grid2048):
        f = gaussian_on(grid2048)
        with pytest.raises(ValueError, match="unsupported projection order"):
            project_halfline(f, 1, eta=2j)
        with pytest.raises(ValueError, match="unsupported projection order"):
            project_halfline(f, -0.5, eta=2j)

    def test_idempotence_s0_exact(self, tail_gauss):
        rep = projection_idempotence_check(tail_gauss, 0, 0, eta=2j)
        assert rep.max_deviation <= 1e-12

    def test_idempotence_zero_function(self, grid2048):
        zero = RayFunction(Ray(0.0, 0j, TIME), grid2048,
                           np.zeros(grid2048.count))
        rep = projection_idempotence_check(zero, 0, -1, eta=2j)
        assert rep.max_deviation == 0.0

    def test_composition_s0_rm1(self, tail_gauss):
        rep = projection_idempotence_check(tail_gauss, 0, -1, eta=2j)
        assert rep.max_deviation <= 1e-6

    def test_composition_deviation_tracks_cut_jump(self, grid2048):
        # with the cut at the Gaussian peak the first projection introduces
        # an O(F(v)) jump; the pointwise composition gap scales with it
        f = gaussian_on(grid2048)
        rep = projection_idempotence_check(f, 0, -1, eta=2j)
        assert 1e-3 < rep.max_deviation < 1.0

    def test_general_positive_order_roundtrip(self, tail_gauss):
        # internal surface used by the perturbation operator: P^1 with the
        # cut in the tail acts as the identity up to the cut-sample scale
        out = halfline_projection(tail_gauss, 1, eta=2j, v=0j)
        gap = np.max(np.abs(out.values - tail_gauss.values))
        assert gap < 1e-6


class TestCutPlans:
    """halfline_projection builds its mask and frequency factors once per
    context, and can start from a transform the caller already holds."""

    @staticmethod
    def case(psi=math.pi / 16):
        ctx = TransformContext(psi, 0j, 0.5, Grid(20.0, 512))
        return ctx, gaussian_on(ctx.src_grid, ctx.time_ray)

    @pytest.mark.parametrize("s, extra", [(1, 1), (2, 0), (0, 2), (-1, 0)])
    def test_given_transform_matches_own_forward(self, s, extra):
        ctx, f = self.case()
        cut = complex(ctx.time_ray.points(-3.0))
        own = halfline_projection(f, s, eta=4j, v=cut, ctx=ctx,
                                  extra_power=extra)
        given = halfline_projection(f, s, eta=4j, v=cut, ctx=ctx,
                                    extra_power=extra, fhat=ctx.forward(f))
        assert np.array_equal(own.values, given.values)

    def test_given_transform_saves_one_forward(self, monkeypatch):
        ctx, f = self.case()
        fhat = ctx.forward(f)
        calls = []
        for name in ("forward", "inverse"):
            original = getattr(TransformContext, name)
            monkeypatch.setattr(
                TransformContext, name,
                lambda self, g, name=name, original=original:
                    calls.append(name) or original(self, g))
        cut = complex(ctx.time_ray.points(-3.0))
        halfline_projection(f, 1, eta=4j, v=cut, ctx=ctx, extra_power=1,
                            fhat=fhat)
        assert calls == ["inverse", "forward", "inverse"]
        calls.clear()
        halfline_projection(f, 1, eta=4j, v=cut, ctx=ctx, extra_power=1)
        assert calls == ["forward", "inverse", "forward", "inverse"]

    def test_factors_built_once_and_read_only(self):
        ctx, f = self.case()
        t_v = -3.0
        plan = _cut_plan(ctx, 2, 4j, t_v, 1)
        assert _cut_plan(ctx, 2, 4j, t_v, 1) is plan
        mask, before, after = plan
        lam = ctx.frequency_ray.points(ctx.dst_grid.nodes)
        assert np.array_equal(mask, ctx.src_grid.nodes >= t_v - 3e-12)
        assert np.array_equal(before, (lam - 4j) ** 2)
        assert np.array_equal(after, np.ones_like(lam) / (lam - 4j) ** 2 * lam)
        for arr in plan:
            with pytest.raises(ValueError, match="read-only"):
                arr[...] = 0
        assert _cut_plan(ctx, 0, None, t_v, 1)[1] is None

    def test_factors_live_as_long_as_the_context(self):
        ctx, f = self.case(psi=0.123)
        halfline_projection(f, 1, eta=4j, v=complex(ctx.time_ray.points(0.0)),
                            ctx=ctx, extra_power=1)
        assert len(ctx._cuts) == 1
        # a value-equal context keeps its own plans
        twin = TransformContext(ctx.psi, ctx.zeta, ctx.w, ctx.src_grid)
        assert twin == ctx and twin._cuts == {}
        assert twin._cuts is not ctx._cuts
        (mask, _, _), = ctx._cuts.values()
        mask = weakref.ref(mask)
        del ctx
        gc.collect()
        assert mask() is None

    def test_eta_on_frequency_ray_rejected_every_call(self):
        ctx, f = self.case(psi=0.0)
        for _ in range(2):
            with pytest.raises(ValidationError, match="off the frequency"):
                halfline_projection(f, 1, eta=3.0, v=0.5, ctx=ctx)


class TestPaleyWiener:
    def test_backward_exponential(self, one_sided4096):
        rep = paley_wiener_check(one_sided4096, "backward-support")
        assert rep.support_leakage <= 1e-8
        assert rep.verdict == "consistent"
        predicted = [n for half, d, n in rep.ray_norm_table
                     if half == "predicted"]
        base = predicted[0]
        assert all(n <= 1.5 * base for n in predicted)

    def test_wrong_half_plane_rejected(self, one_sided4096):
        rep = paley_wiener_check(one_sided4096, "backward-support")
        assert rep.opposite_verdict == "correctly-rejected"
        opposite = [n for half, d, n in rep.ray_norm_table
                    if half == "opposite"]
        assert max(opposite) > 1e3 * opposite[0]

    def test_forward_side_mirror(self, grid4096):
        t = grid4096.nodes
        f = RayFunction(Ray(0.0, 0j, TIME), grid4096,
                        np.where(t > 0, np.exp(-t), 0.0).astype(complex))
        rep = paley_wiener_check(f, "forward-support")
        assert rep.verdict == "consistent"
        assert rep.opposite_verdict == "correctly-rejected"

    def test_zero_function(self, grid4096, real_ray):
        zero = RayFunction(real_ray, grid4096, np.zeros(grid4096.count))
        rep = paley_wiener_check(zero, "backward-support")
        assert rep.support_leakage == 0.0
        assert rep.verdict == "consistent"

    def test_gaussian_leaks(self, gauss4096):
        rep = paley_wiener_check(gauss4096, "backward-support")
        assert rep.support_leakage > 0.1
        assert rep.verdict == "inconsistent"
