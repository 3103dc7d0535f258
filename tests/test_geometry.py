import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conescale import (Cone, Grid, Ray, RayFunction, TIME, FREQUENCY,
                       NonFiniteSampleError, TransformContext,
                       ValidationError, WeightOverflowError,
                       weighted_l2_report)
from conescale.geometry import derivative_energy
from conftest import gaussian_on
from _oracles import GAUSS_L2, GAUSS_SOBOLEV1, sobolev_norm_spectral


class TestRayAndCone:
    def test_angle_normalized(self):
        assert Ray(3.5 * math.pi, 0j).angle == pytest.approx(
            normalize(3.5 * math.pi))

    def test_side_convention(self):
        psi = math.pi / 5
        assert Ray(psi, 0j, FREQUENCY).direction == pytest.approx(
            cmath.exp(1j * psi))
        assert Ray(psi, 0j, TIME).direction == pytest.approx(
            cmath.exp(-1j * psi))

    def test_membership(self):
        ray = Ray(math.pi / 6, 1.0 + 1.0j, FREQUENCY)
        z = ray.points(np.array([2.5]))[0]
        assert ray.parameter(z) == pytest.approx(2.5, rel=1e-15)
        with pytest.raises(ValidationError, match="not on the ray"):
            ray.parameter(z + 0.1j * ray.direction)

    def test_cone_membership(self):
        cone = Cone(math.pi / 6, 0j, 1)
        assert cone.contains(cmath.exp(1j * math.pi / 12))
        assert cone.contains(-cmath.exp(1j * math.pi / 12))  # other nappe
        assert not cone.contains(1.0)          # boundary ray excluded
        assert not cone.contains(0j)           # vertex excluded
        assert not cone.contains(1j)

    def test_cone_slit_plane(self):
        cone = Cone(math.pi, 0j, 1)
        assert cone.contains(1j) and cone.contains(-1j)
        assert not cone.contains(5.0)

    def test_closed_membership_margin(self):
        cone = Cone(math.pi / 6, 0j, 1)
        assert cone.contains_closed(1.0)
        assert cone.contains_closed(0j)
        assert cone.contains_closed(cmath.exp(1j * (math.pi / 6 + 5e-10)),
                                    margin=1e-9)

    def test_orientation(self):
        cone = Cone(math.pi / 6, 0j, -1)
        assert cone.contains(cmath.exp(-1j * math.pi / 12))
        assert not cone.contains(cmath.exp(1j * math.pi / 12))

    def test_invalid(self):
        with pytest.raises(ValueError):
            Cone(0.0, 0j, 1)
        with pytest.raises(ValueError):
            Cone(1.0, 0j, 2)


def normalize(psi):
    out = math.fmod(psi + math.pi, 2 * math.pi)
    if out < 0:
        out += 2 * math.pi
    return out - math.pi


class TestGrid:
    def test_nodes(self):
        g = Grid(2.0, 5)
        assert np.allclose(g.nodes, [-2, -1, 0, 1, 2])
        assert g.spacing == pytest.approx(1.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            Grid(2.0, 1)
        with pytest.raises(ValueError):
            Grid(-1.0, 4)


class TestRayFunction:
    def test_rejects_nonfinite(self, real_ray):
        g = Grid(1.0, 4)
        vals = np.ones(4, dtype=complex)
        vals[2] = np.nan
        with pytest.raises(NonFiniteSampleError, match="node 2"):
            RayFunction(real_ray, g, vals)

    def test_shape_check(self, real_ray):
        with pytest.raises(ValueError):
            RayFunction(real_ray, Grid(1.0, 4), np.ones(5))

    def test_immutable(self, gauss4096):
        with pytest.raises(ValueError):
            gauss4096.values[0] = 1.0


class TestWeightedL2:
    def test_zero_function(self, grid4096, real_ray):
        f = RayFunction(real_ray, grid4096, np.zeros(grid4096.count))
        assert weighted_l2_report(f).value == 0.0

    def test_gaussian_order0(self, gauss4096):
        assert weighted_l2_report(gauss4096).value == pytest.approx(GAUSS_L2, abs=1e-12)

    def test_gaussian_order1(self, grid4096):
        f = gaussian_on(grid4096, order=1.0)
        assert weighted_l2_report(f).value == pytest.approx(GAUSS_SOBOLEV1, abs=1e-12)

    @pytest.mark.parametrize("c", [2.0, -3.5, 1j, 0.3 - 0.4j])
    def test_absolute_homogeneity(self, gauss4096, c):
        scaled = gauss4096.with_values(c * gauss4096.values)
        assert weighted_l2_report(scaled).value == pytest.approx(
            abs(c) * weighted_l2_report(gauss4096).value, rel=1e-14)

    def test_offset_travel_invariance(self):
        # moving the offset along its own ray resamples the same line
        psi, shift = math.pi / 8, 0.37
        g = Grid(20.0, 4096)
        norms = []
        for extra in (0.0, shift):
            ray = Ray(psi, (1.0 + 0.5j) + cmath.exp(1j * psi) * extra, FREQUENCY)
            z = ray.points(g.nodes)
            f = RayFunction(ray, g, np.exp(-((z - 1.0 - 0.5j) ** 2) / 2.0),
                            0.0, 0.1j)
            norms.append(weighted_l2_report(f).value)
        assert norms[0] == pytest.approx(norms[1], rel=1e-10)

    def test_weight_change_identity(self):
        # moving the weight number along the dual ray rescales the norm by
        # exp(Im(zeta (w - v))), exactly at the nodes
        psi = math.pi / 8
        zeta = 0.4 + 0.2j
        g = Grid(20.0, 2048)
        ray = Ray(psi, zeta, FREQUENCY)
        z = ray.points(g.nodes)
        w = 0.2 + 0.1j
        v = w + cmath.exp(-1j * psi) * 0.8
        vals = np.exp(-((z - zeta) ** 2) / 2.0)
        lhs = weighted_l2_report(RayFunction(ray, g, vals, 0.0, v)).value
        rhs = math.exp((zeta * (w - v)).imag) * weighted_l2_report(
            RayFunction(ray, g, vals, 0.0, w)).value
        assert lhs == pytest.approx(rhs, rel=1e-10)

    def test_overflow_names_node(self, grid4096, real_ray):
        # the time-side weight |e^{-i zeta t}|^2 is e^{-200 t}, e^{4000} at
        # node 0
        f = gaussian_on(grid4096, number=-100j)
        with pytest.raises(WeightOverflowError) as err:
            weighted_l2_report(f).value
        assert err.value.node_index == 0

    def test_weight_past_exp_underflow(self):
        # z = 10.5 + t on [9.5, 11.5]: the weight e^{-80 z} lies below
        # e^{-745}, where exp underflows to 0, but each product with
        # |f|^2 = 1e300 is representable
        grid = Grid(1.0, 257)
        f = RayFunction(Ray(0.0, 10.5, TIME), grid, np.full(257, 1e150),
                        0.0, -40j)
        weights = [0.5 if k in (0, 256) else 1.0 for k in range(257)]
        terms = [w * math.exp(-80.0 * (10.5 + t) + 2.0 * math.log(1e150))
                 for w, t in zip(weights, grid.nodes)]
        want = math.sqrt(math.fsum(terms) * grid.spacing)
        got = weighted_l2_report(f).value
        assert got == pytest.approx(want, rel=1e-9, abs=0.0)
        assert want == pytest.approx(1.0555e-16, rel=1e-4, abs=0.0)

    def test_tail_report(self, grid4096, real_ray):
        flat = RayFunction(real_ray, grid4096, np.ones(grid4096.count))
        rep = weighted_l2_report(flat)
        assert rep.tail_mass == pytest.approx(1.0)

    def test_hermitian_form(self, grid4096, real_ray):
        t = grid4096.nodes
        vals = np.stack([np.exp(-t ** 2), 2 * np.exp(-t ** 2)], axis=1)
        f = RayFunction(real_ray, grid4096, vals)
        h = np.array([[2.0, 0.0], [0.0, 1.0]])
        expected = math.sqrt(6.0) * math.sqrt(math.sqrt(math.pi / 2.0))
        assert derivative_energy(f, [h]) == pytest.approx(expected ** 2,
                                                          rel=1e-12)


@st.composite
def weighted_packets(draw):
    """An asymmetric packet on a time-side ray and its transform context:
    a Gaussian off the ray's origin with a kick and a linear factor, decayed
    with its weight at both ends of both windows."""
    part = st.floats(-0.5, 0.5)
    ctx = TransformContext(draw(st.floats(0.0, math.pi / 8)),
                           complex(draw(part), draw(part)),
                           draw(st.sampled_from([0j, 0.5 + 0j])),
                           Grid(20.0, 1024))
    center, kick, tilt = (draw(st.floats(-3.0, 3.0)) for _ in range(3))
    t = ctx.src_grid.nodes
    values = np.exp(-(t - center) ** 2 / 2.0 + 1j * kick * t) * (1.0 + tilt * t)
    return ctx, RayFunction(ctx.time_ray, ctx.src_grid, values, 0.0, ctx.zeta)


@settings(max_examples=40, deadline=None)
@given(weighted_packets())
def test_time_side_weight_is_parsevals_property(case):
    # the time side's energy, its norm and the norm of its transform all
    # use Parseval's weights, |e^{-i zeta z}| and |e^{i w lam}|
    ctx, f = case
    energy = derivative_energy(f, [np.eye(1)])
    time = weighted_l2_report(f).value ** 2
    frequency = weighted_l2_report(ctx.forward(f)).value ** 2
    assert energy == pytest.approx(time, rel=1e-10)
    assert frequency == pytest.approx(time, rel=1e-10)


def sobolev_energy(f, ell):
    """derivative_energy with the forms C(ell, j) I: the squared H^ell
    norm."""
    eye = np.eye(f.values.shape[1])
    return derivative_energy(f, [math.comb(ell, j) * eye
                                 for j in range(ell + 1)])


class TestSobolevNorms:
    def test_zero(self, grid4096, real_ray, ctx4096):
        f = RayFunction(real_ray, grid4096, np.zeros(grid4096.count))
        assert sobolev_norm_spectral(f, 1.0, ctx4096) == 0.0
        assert sobolev_energy(f, 1) == 0.0

    def test_spectral_order0(self, gauss4096, ctx4096):
        assert sobolev_norm_spectral(gauss4096, 0.0, ctx4096) == pytest.approx(
            GAUSS_L2, abs=1e-10)

    def test_spectral_order1(self, gauss4096, ctx4096):
        assert sobolev_norm_spectral(gauss4096, 1.0, ctx4096) == pytest.approx(
            GAUSS_SOBOLEV1, abs=1e-10)

    def test_derivative_order1_closed_form(self, gauss4096):
        assert math.sqrt(sobolev_energy(gauss4096, 1)) == pytest.approx(
            GAUSS_SOBOLEV1, abs=1e-9)

    @pytest.mark.parametrize("ell", [0, 1, 2])
    def test_cross_agreement(self, gauss4096, ctx4096, ell):
        spectral = sobolev_norm_spectral(gauss4096, float(ell), ctx4096)
        derivative = math.sqrt(sobolev_energy(gauss4096, ell))
        assert abs(spectral - derivative) <= 1e-6 * max(spectral, derivative)

    def test_cross_agreement_windowed_sine(self, grid4096, real_ray, ctx4096):
        t = grid4096.nodes
        f = RayFunction(real_ray, grid4096, np.sin(t) * np.exp(-t ** 2 / 100))
        n0 = math.sqrt(sobolev_energy(f, 0))
        n1 = math.sqrt(sobolev_energy(f, 1))
        assert n1 > n0
        assert abs(sobolev_norm_spectral(f, 1.0, ctx4096) - n1) <= 1e-6 * n1

    def gaussian40(self, number):
        grid = Grid(40.0, 2048)
        return RayFunction(Ray(0.0, 0j, TIME), grid, np.exp(-grid.nodes ** 2),
                           0.0, number)

    def test_derivative_weight_past_exp_range_over_decayed_tail(self):
        # the weight e^{-20 t} overflows for t < -35.5, where f has
        # underflowed to zero; the integrand e^{-20 t - 2 t^2} (1 + 4 t^2)
        # itself peaks near e^50
        energy = sobolev_energy(self.gaussian40(-10j), 1)
        exact = 102.0 * math.sqrt(math.pi / 2.0) * math.exp(50.0)
        assert energy == pytest.approx(exact, rel=1e-5)

    def test_derivative_overflowing_integrand_raises(self):
        # e^{-80 t - 2 t^2} peaks at e^800
        with pytest.raises(WeightOverflowError):
            sobolev_energy(self.gaussian40(-40j), 1)

    def test_negative_order_spectral_allowed(self, gauss4096, ctx4096):
        value = sobolev_norm_spectral(gauss4096, -1.0, ctx4096)
        assert 0.0 < value < sobolev_norm_spectral(gauss4096, 0.0, ctx4096)


def test_slow_decay_reports_tail_mass(grid4096, real_ray):
    # 1/(1+t^2) on [-20, 20]: the squared integrand ends at about 6e-6 of
    # its peak, so the window visibly truncates the integral
    t = grid4096.nodes
    slow = RayFunction(real_ray, grid4096, 1.0 / (1.0 + t ** 2))
    integrand = (1.0 + t ** 2) ** -2
    tail = weighted_l2_report(slow).tail_mass
    assert tail == pytest.approx(integrand[0] / integrand.max(), rel=1e-12)
    assert tail > 1e-6
