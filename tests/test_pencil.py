import cmath
import itertools
import json
import math
import warnings
from unittest import mock

import numpy as np
import pytest
import scipy.linalg
import scipy.optimize
from hypothesis import assume, example, given, settings, strategies as st

import conescale.pencil
import conescale.solver
from conescale import (Cone, Disk, GaussianRhs, Grid, MatrixPencil,
                       NearEigenvalueError, SpectrumReport, certify_spectrum,
                       cone_clearance, constant_problem, evaluate,
                       resolvent_apply_batch, solve_const, spectrum,
                       verify_growth_condition)
from conescale.cli import main as cli_main
from conescale.errors import ValidationError
from conescale.geometry import TIME, Ray
from conescale.pencil import _cluster, evaluate_batch, search_radius
from conescale.solver import apply_pencil_fd
from _oracles import (cluster_pairwise, companion_qz_eigvals,
                      fd_laplacian_eigenvalues, partial_fraction_triple,
                      resolvent_lu, spectrum_uncached)


@pytest.fixture(scope="module")
def identity_pencil():
    # m=1, A_0 = 0, A_1 = I: A(lam) = I identically
    return MatrixPencil((np.zeros((1, 1)), np.eye(1)))


@pytest.fixture(scope="module")
def quad_pencil():
    # A(lam) = lam^2 + 1
    return MatrixPencil((np.eye(1), np.zeros((1, 1)), np.eye(1)))


@pytest.fixture(scope="module")
def linear_pencil():
    # A(lam) = lam + i
    return MatrixPencil((np.eye(1), 1j * np.eye(1)))


def dirichlet_pencil(n):
    h = 1.0 / (n + 1)
    L = (np.diag(2.0 * np.ones(n)) - np.diag(np.ones(n - 1), 1)
         - np.diag(np.ones(n - 1), -1)) / h ** 2
    return MatrixPencil((np.eye(n), np.zeros((n, n)), L))


class TestConstruction:
    def test_needs_degree_one(self):
        with pytest.raises(ValueError):
            MatrixPencil((np.eye(2),))

    def test_common_dimension(self):
        with pytest.raises(ValueError):
            MatrixPencil((np.eye(2), np.eye(3)))

    def test_identically_singular_rejected(self):
        with pytest.raises(ValueError, match="singular at every probe"):
            MatrixPencil((np.zeros((1, 1)), np.zeros((1, 1))))
        # A(lam) = (lam + 1) e_0 e_0^T: nonzero, singular for every lam
        with pytest.raises(ValueError, match="singular at every probe"):
            MatrixPencil((np.diag([1.0, 0.0]), np.diag([1.0, 0.0])))

    def test_small_scale_regular_accepted(self):
        # det(1e-3 (lam + 1) I) underflows to 0 at n = 200
        p = MatrixPencil((1e-3 * np.eye(200), 1e-3 * np.eye(200)))
        assert p.dim == 200

    def test_wide_regularity_probe_silent(self):
        # a clearance-wide sized pencil lam^2 I + (L_h + S): det overflows
        n = 128
        L = dirichlet_pencil(n).coefficients[2].real
        rng = np.random.default_rng(0)
        S = rng.standard_normal((n, n))
        S = S + S.T
        S *= 0.5 * np.linalg.eigvalsh(L)[0] / np.linalg.norm(S, 2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            p = MatrixPencil((np.eye(n), np.zeros((n, n)), L + S))
        assert p.dim == n

    def test_nested_forms_enforced(self):
        good = (np.eye(2), 2.0 * np.eye(2))
        MatrixPencil((np.eye(2), np.eye(2)), good)
        bad = (2.0 * np.eye(2), np.eye(2))
        with pytest.raises(ValueError, match="not nested"):
            MatrixPencil((np.eye(2), np.eye(2)), bad)

    def test_forms_must_be_definite(self):
        with pytest.raises(ValueError, match="positive definite"):
            MatrixPencil((np.eye(1), np.eye(1)),
                         (np.array([[-1.0]]), np.array([[1.0]])))

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan, 1j * np.inf])
    def test_non_finite_coefficient_refused(self, bad):
        # lam I + diag(inf, -1) used to get an all-nan spectrum, dropped
        # without a note, so a cone around its eigenvalue 1 read clear
        with pytest.raises(ValidationError,
                           match="coefficient 1 has a non-finite entry"):
            MatrixPencil((np.eye(2), np.diag([bad, -1.0])))

    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_non_finite_norm_form_refused(self, bad):
        # a nan form used to be accepted, and vector_norm returned nan
        with pytest.raises(ValidationError,
                           match="norm form 1 has a non-finite entry"):
            MatrixPencil((np.eye(1), np.eye(1)),
                         (np.eye(1), np.array([[bad]])))


class TestClassification:
    """Each coefficient is classified once, as exactly zero, exactly c I or
    dense; the eigensolve route and apply_pencil_fd read that."""

    @pytest.mark.parametrize("make, scalars", [
        (lambda: dirichlet_pencil(4), (1, 0, None)),
        (lambda: dirichlet_pencil(4).scaled(math.pi / 8),
         (cmath.exp(1j * math.pi / 4), 0, None)),
        (lambda: notes_pencil(), (None, None, 1)),
        (lambda: MatrixPencil((np.zeros((1, 1)), np.eye(1))), (0, 1)),
        (lambda: MatrixPencil((2.0 * np.eye(2), np.diag([1.0, 3j]))),
         (2, None)),
        (lambda: MatrixPencil((np.eye(1), np.zeros((1, 1)), 1j * np.eye(1))),
         (1, 0, 1j)),
    ])
    def test_scalars(self, make, scalars):
        p = make()
        assert p.scalars == scalars
        assert p.scalars is p.scalars

    @pytest.mark.parametrize("near", [
        np.eye(3) + np.diag([0.0, 0.0, np.spacing(1.0)]),
        np.eye(3) + np.diag([5e-324, 0.0], 1),
        np.eye(3) + 1j * np.diag([0.0, 5e-324, 0.0]),
    ], ids=["diagonal_ulp", "subnormal_off_diagonal", "imaginary_entry"])
    def test_near_identity_is_dense(self, monkeypatch, near):
        # lam^2 A_0 + L with A_0 one ulp or one subnormal off I: dense, so
        # QZ, not the binomial eigh
        p = MatrixPencil((near, np.zeros((3, 3)),
                          dirichlet_pencil(3).coefficients[2]))
        assert p.scalars == (None, 0, None)
        seen = record_standard_solves(monkeypatch)
        spectrum(p)
        assert seen == []

    def test_fd_skips_zero_coefficients(self, monkeypatch):
        orders = []
        real = conescale.solver.derivative_with_cuts

        def spy(values, spacing, wanted, cuts=()):
            orders.append(list(wanted))
            return real(values, spacing, wanted, cuts=cuts)

        monkeypatch.setattr(conescale.solver, "derivative_with_cuts", spy)
        u = GaussianRhs(cross_section=np.ones(2)).sample(
            Ray(0.0, 0j, TIME), Grid(20.0, 256))
        for p in (dirichlet_pencil(2), MatrixPencil(
                (np.eye(2), np.ones((2, 2)), np.eye(2)))):
            apply_pencil_fd(p, u)
        assert orders == [[2, 0], [2, 1, 0]]


class TestEvaluate:
    def test_identity(self, identity_pencil):
        assert np.allclose(evaluate(identity_pencil, 5.0), np.eye(1))

    def test_root(self, quad_pencil):
        assert abs(evaluate(quad_pencil, 1j)[0, 0]) < 1e-15

    def test_value(self, quad_pencil):
        assert evaluate(quad_pencil, 2.0)[0, 0] == pytest.approx(5.0)


def resolvent_one(p, lam, f):
    """The batched resolvent at one node: the single solve."""
    return resolvent_apply_batch(p, np.array([lam]), np.array([f]))[0]


class TestResolvent:
    def test_identity(self, identity_pencil):
        f = np.array([3.0 - 1.0j])
        assert np.allclose(resolvent_one(identity_pencil, 7.7, f), f)

    def test_scalar(self, quad_pencil):
        assert resolvent_one(quad_pencil, 2.0,
                             np.array([10.0]))[0] == pytest.approx(2.0)

    def test_diagonal(self):
        p = MatrixPencil((np.eye(2), -np.diag([1.0, 2.0])))
        u = resolvent_one(p, 0.0, np.array([1.0, 1.0]))
        assert np.allclose(u, [-1.0, -0.5])

    def test_near_eigenvalue(self, quad_pencil):
        with pytest.raises(NearEigenvalueError):
            resolvent_one(quad_pencil, 1j, np.array([1.0]))


class TestSpectrum:
    def test_identity_empty(self, identity_pencil):
        spec = spectrum(identity_pencil)
        assert spec.eigenvalues == ()
        residuals, notes = certify_spectrum(identity_pencil)
        assert residuals == () and any("infinity" in n for n in notes)

    def test_quadratic_roots(self, quad_pencil):
        spec = spectrum(quad_pencil)
        assert len(spec.eigenvalues) == 2
        assert max(abs(lam - ref) for lam, ref in
                   zip(spec.eigenvalues, (-1j, 1j))) < 1e-10
        assert spec.multiplicities == (1, 1)

    def test_sorted_and_certified(self):
        p = MatrixPencil((np.eye(2), np.diag([1.0, -2.0])))
        spec = spectrum(p)
        keys = [(l.real, l.imag) for l in spec.eigenvalues]
        assert keys == sorted(keys)
        scale = max(np.linalg.norm(c) for c in p.coefficients)
        residuals, notes = certify_spectrum(p)
        assert len(residuals) == 2 and notes == ()
        assert all(r <= 1e-8 * scale for r in residuals)

    def test_fd_laplacian_closed_form(self):
        n = 16
        spec = spectrum(dirichlet_pencil(n))
        closed = fd_laplacian_eigenvalues(n)
        pos = np.sort([l.imag for l in spec.eigenvalues if l.imag > 0])
        assert len(pos) == n
        assert np.max(np.abs(pos - closed) / closed) < 1e-8

    def test_single_mode(self):
        spec = spectrum(dirichlet_pencil(1))
        h = 0.5
        target = 2.0 / h * math.sin(math.pi * h / 2.0)
        assert sorted(l.imag for l in spec.eigenvalues) == pytest.approx(
            [-target, target])

    def test_scalar_multiple_invariance(self, quad_pencil):
        scaled = MatrixPencil(tuple((2.0 - 1.0j) * c
                                    for c in quad_pencil.coefficients))
        a = spectrum(quad_pencil).eigenvalues
        b = spectrum(scaled).eigenvalues
        assert len(a) == len(b)
        # real parts are compared only up to TOL_CLUSTER, so the order of
        # +-i does not depend on the rounding noise in them
        assert all(abs(x - y) < 1e-7 for x, y in zip(a, b))

    def test_region_filter(self, quad_pencil):
        spec = spectrum(quad_pencil, region=Disk(1j, 0.5))
        assert spec.eigenvalues == (1j,)

    def test_defective_flagged(self):
        # (lam - 1)^2 has a double root at 1
        p = MatrixPencil((np.eye(1), -2.0 * np.eye(1), np.eye(1)))
        # the companion solve returns the two copies up to about 4e-8
        # apart, within the default TOL_CLUSTER
        raw = p.eigenvalues
        assert abs(raw[0] - raw[1]) <= conescale.pencil.TOL_CLUSTER
        spec = spectrum(p)
        assert spec.multiplicities == (2,)
        assert any("defective" in n for n in certify_spectrum(p)[1])


class TestClustering:
    def test_double_eigenvalue_near_imaginary_axis_is_one_cluster(self):
        # the two copies of 1j differ in their real parts by rounding noise
        # only, so lexsort puts 3j between them; chaining split them
        rng = np.random.default_rng(3)
        q, _ = np.linalg.qr(rng.standard_normal((4, 4))
                            + 1j * rng.standard_normal((4, 4)))
        d = q @ np.diag([1j, 1j, 5j, 3j]) @ q.conj().T
        spec = spectrum(MatrixPencil((np.eye(4), -d)))
        lams = spec.eigenvalues
        assert all(abs(a - b) > conescale.pencil.TOL_CLUSTER
                   for i, a in enumerate(lams) for b in lams[i + 1:])
        assert sorted(zip((round(l.imag) for l in lams),
                          spec.multiplicities)) == [(1, 2), (3, 1), (5, 1)]
        notes = certify_spectrum(MatrixPencil((np.eye(4), -d)))[1]
        assert any("cluster at" in n and "defective" in n for n in notes)

    def test_order_ignores_noise_in_real_parts(self):
        # the real parts of i, 2i, 5i, 3i come out as -8.3e-17, -1.0e-17,
        # +4.8e-17 and -9.0e-17; sorting by them put 3i first
        rng = np.random.default_rng(3)
        q, _ = np.linalg.qr(rng.standard_normal((4, 4))
                            + 1j * rng.standard_normal((4, 4)))
        d = q @ np.diag([1j, 2j, 5j, 3j]) @ q.conj().T
        p = MatrixPencil((np.eye(4), -d))
        lams = spectrum(p).eigenvalues
        assert [round(l.imag) for l in lams] == [1, 2, 3, 5]
        assert max(abs(l.real) for l in lams) < 1e-15
        assert (spectrum(p), certify_spectrum(p)) == spectrum_uncached(p)

    def test_order_groups_real_parts_within_tolerance(self):
        # real parts 0 and 0.8 tol share a group, ordered by imaginary
        # part; 1.9 tol starts a new one, however small its imaginary part
        tol = conescale.pencil.TOL_CLUSTER
        p = MatrixPencil((np.eye(3), -np.diag([1j, 0.8 * tol - 1j,
                                                1.9 * tol - 5j])))
        lams = spectrum(p).eigenvalues
        assert [round(l.imag) for l in lams] == [-1, 1, -5]

    def test_failed_certificate_noted(self):
        # lam I - diag(0, 5e-8): one cluster of size 2 at 2.5e-8, where
        # sigma_min is 2.5e-8 against a backward-error bound near 8.5e-16
        p = MatrixPencil((np.eye(2), -np.diag([0.0, 5e-8])))
        assert spectrum(p) == SpectrumReport((2.5e-8 + 0j,), (2,))
        assert certify_spectrum(p) == ((2.5e-8,), (
            "eigenvalue (2.5e-08+0j) fails its residual certificate: "
            "smallest singular value 2.500e-08 vs backward-error bound "
            "8.536e-16",
            "cluster at (2.5e-08+0j): multiplicity 2 by distance; Jordan "
            "chains unresolved, may be defective"))
        assert (spectrum(p), certify_spectrum(p)) == spectrum_uncached(p)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(st.integers(-3, 3), st.integers(-3, 3),
                              st.floats(-0.6, 0.6), st.floats(-0.6, 0.6)),
                    max_size=24))
    def test_sweep_matches_pairwise_components(self, points):
        # lattice points 0.9 tol apart, moved by up to 0.6 tol: chains,
        # merges and gaps at every scale around tol
        tol = 1e-7
        values = np.array([complex(0.9 * a + x, 0.9 * b + y) * tol
                           for a, b, x, y in points], dtype=complex)
        got = _cluster(values, tol)
        want = cluster_pairwise(values, tol)
        assert [c.tobytes() for c in got] == [c.tobytes() for c in want]


def _count_svd(monkeypatch):
    calls = []
    svd = np.linalg.svd

    def counting(a, *args, **kwargs):
        calls.append(np.shape(a))
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting)
    return calls


def notes_pencil():
    """Singular A_0 (one dropped eigenvalue), a double root at 1 and a
    simple one at -1."""
    return MatrixPencil((np.diag([1.0, 0.0]), np.diag([-2.0, 1.0]),
                         np.eye(2)))


# one pencil per eigensolve route (by the eigensolver it takes, with
# real and complex arithmetic where they differ)
ROUTES = {
    "hermitian_real": (lambda: dirichlet_pencil(8), "eigh"),
    "hermitian_complex": (lambda: hermitian_binomial(4), "eigh"),
    "binomial_real": (lambda: binomial_pencil(1, 2, 4, True, 1.0), "eig"),
    "binomial_complex": (lambda: binomial_pencil(1, 2, 4, False, 1.0),
                         "eig"),
    "companion_real": (lambda: monic_pencil(1, 2, 3, True, 1.0), "eig"),
    "companion_complex": (lambda: monic_pencil(1, 2, 3, False, 1.0), "eig"),
    "qz_scaled": (lambda: dirichlet_pencil(4).scaled(math.pi / 8), "qz"),
    "qz_singular_leading": (notes_pencil, "qz"),
}

# every reader of a pencil's one eigensolve
READS = {
    "spectrum": spectrum,
    "clearance": lambda p: cone_clearance(p, Cone(math.pi / 8, 0j, 1),
                                          search_radius(p, 0j)),
    "certificate": certify_spectrum,
    "resolvent": lambda p: resolvent_apply_batch(
        p, np.array([0.3 + 0.2j, -1.7 + 2.9j]), np.ones((2, p.dim))),
    "triple": lambda p: p.triple,
}


def _bits(x):
    """The exact content of a read: array bytes, else the repr."""
    if isinstance(x, np.ndarray):
        return x.dtype.str, x.shape, x.tobytes()
    if isinstance(x, tuple):
        return tuple(_bits(y) for y in x)
    return repr(x)


class TestLazyCertificate:
    """Certificates are computed by certify_spectrum only, never by the
    readers of eigenvalues."""

    def test_eigenvalue_readers_run_no_svd(self, monkeypatch, tmp_path):
        calls = _count_svd(monkeypatch)
        p = dirichlet_pencil(8)
        rep = cone_clearance(p, Cone(math.pi / 8, 0j, 1),
                             search_radius(p, 0j))
        assert rep.clear
        solve_const(constant_problem(MatrixPencil((np.eye(1), 1j * np.eye(1))),
                                     GaussianRhs(), Grid(20.0, 512)))
        path = tmp_path / "problem.json"
        path.write_text(json.dumps({
            "schema_version": 1,
            "pencil": {"degree": 2, "dim": 1,
                       "coefficients": [[[[1.0, 0.0]]], [[[0.0, 0.0]]],
                                        [[[1.0, 0.0]]]]},
            "geometry": {"cone": {"angle": math.pi / 6, "vertex": [0.0, 2.0],
                                  "orientation": 1},
                         "weight": [0.0, 0.0]},
            "grid": {"half_width": 20.0, "count": 256},
            "rhs": {"kind": "gaussian"}}), encoding="utf-8")
        assert cli_main(["clearance", str(path), "--out",
                         str(tmp_path / "report.csv")]) == 0
        assert calls == []

    def test_region_certifies_only_its_clusters(self, monkeypatch):
        calls = _count_svd(monkeypatch)
        p = dirichlet_pencil(8)
        spec = spectrum(p, region=Disk(10j, 5.0))
        assert calls == [] and len(spec.eigenvalues) == 4
        residuals, _ = certify_spectrum(p, Disk(10j, 5.0))
        assert len(calls) == len(residuals) == 4
        certify_spectrum(p)
        assert len(calls) == 4 + 16

    @pytest.mark.parametrize("make", [lambda: dirichlet_pencil(8),
                                      notes_pencil] + [
        pytest.param(ROUTES[route][0], id=route)
        for route in ("hermitian_complex", "binomial_real", "binomial_complex",
                      "companion_real", "companion_complex", "qz_scaled")])
    @pytest.mark.parametrize("first", ["clearance", "region", "full", "none",
                                       "resolvent", "triple"])
    def test_any_read_order_matches_uncached(self, make, first):
        p = make()
        region = Disk(spectrum_uncached(make())[0].eigenvalues[0], 0.5)
        if first == "region":
            certify_spectrum(p, region)
        elif first != "none":
            READS["certificate" if first == "full" else first](p)
        for kwargs in ({"region": region}, {}):
            got = spectrum(p, **kwargs), certify_spectrum(p, **kwargs)
            assert got == spectrum_uncached(make(), **kwargs)

    def test_report_is_plain_data(self):
        spec = SpectrumReport((1j,), (2,))
        assert spec == SpectrumReport((1j,), (2,))
        assert spec != SpectrumReport((1j,), (1,))
        assert hash(spec) == hash(SpectrumReport((1j,), (2,)))
        with pytest.raises(AttributeError):
            spec.eigenvalues = ()


class TestClearance:
    def test_identity_clear(self, identity_pencil):
        rep = cone_clearance(identity_pencil, Cone(math.pi / 4, 0j, 1), 10.0)
        assert rep.clear

    def test_quadratic_offset_cone_clear(self, quad_pencil):
        rep = cone_clearance(quad_pencil, Cone(math.pi / 6, 2j, 1), 10.0)
        assert rep.clear

    def test_slit_plane_violated(self, quad_pencil):
        rep = cone_clearance(quad_pencil, Cone(math.pi, 0j, 1), 10.0)
        assert not rep.clear
        assert set(rep.violations) == {1j, -1j}

    def test_boundary_counts_as_violation(self, quad_pencil):
        # +-i sit on the boundary ray of the upper half-plane cone
        rep = cone_clearance(quad_pencil, Cone(math.pi / 2, 1j + 1.0, -1), 10.0)
        assert not rep.clear or rep.clear  # smoke: no exception
        rep = cone_clearance(quad_pencil, Cone(math.pi / 2, 0j, 1), 10.0)
        assert not rep.clear

    @pytest.mark.parametrize("angle", [math.pi / 6, math.pi / 12, math.pi / 24])
    def test_subcone_monotonicity(self, quad_pencil, angle):
        # clear at pi/6 about vertex 2i implies clear for every sub-cone
        rep = cone_clearance(quad_pencil, Cone(angle, 2j, 1), 10.0)
        assert rep.clear


class TestGrowthCondition:
    CONES = (Cone(math.pi / 8, 0j, 1), Cone(math.pi / 8, 0j, -1))

    def test_identity_growing(self, identity_pencil):
        rep = verify_growth_condition(identity_pencil, self.CONES, 10.0)
        assert rep.verdict == "growing"
        # ratio = 1 + |lam| with A^{-1} = I and equal norms
        assert rep.band_maxima[0] == pytest.approx(21.0)

    def test_linear_plausible(self, linear_pencil):
        rep = verify_growth_condition(linear_pencil, self.CONES, 10.0)
        assert rep.verdict == "plausible"
        assert rep.max_ratio < 1.5

    def test_quadratic_plausible(self, quad_pencil):
        rep = verify_growth_condition(quad_pencil, self.CONES, 10.0)
        assert rep.verdict == "plausible"
        # (1 + |lam| + |lam|^2) / |lam^2 + 1| stays near 1 at large |lam|
        assert rep.max_ratio < 1.5


class TestSpectrumInvariants:
    @pytest.mark.parametrize("make", [
        lambda: MatrixPencil((np.eye(1), np.zeros((1, 1)), np.eye(1))),
        lambda: dirichlet_pencil(5),
        lambda: MatrixPencil((np.eye(2), np.diag([1.0, -2.0]))),
    ])
    def test_total_multiplicity_bounded(self, make):
        p = make()
        spec = spectrum(p)
        assert sum(spec.multiplicities) <= p.degree * p.dim


@pytest.mark.parametrize("lam", [0.0, 3.0, -2.0 + 1.0j, 10.0j, 0.5 - 0.5j])
@pytest.mark.parametrize("f", [np.array([1.0, 1.0]), np.array([1.0j, -2.0]),
                               np.array([0.0, 1e6])])
def test_evaluate_resolvent_identity(lam, f):
    p = MatrixPencil((np.eye(2), -np.diag([1.0, 2.0])))
    if min(abs(lam - 1.0), abs(lam - 2.0)) < 1e-6:
        return
    u = resolvent_one(p, lam, f)
    residual = np.linalg.norm(evaluate(p, lam) @ u - f)
    assert residual <= 1e-10 * max(np.linalg.norm(f), 1.0)


def nodewise(p, lams, rhs):
    """The per-node LU route the batched resolvent is checked against."""
    return np.array([resolvent_lu(p, lam, f) for lam, f in zip(lams, rhs)])


class TestEvaluateBatch:
    def test_matches_nodewise_products(self):
        rng = np.random.default_rng(3)
        p = MatrixPencil(tuple(rng.standard_normal((3, 3)) for _ in range(3)))
        lams = rng.standard_normal(5) + 1j * rng.standard_normal(5)
        us = rng.standard_normal((5, 3)) + 1j * rng.standard_normal((5, 3))
        want = np.array([evaluate(p, lam) @ u for lam, u in zip(lams, us)])
        assert np.allclose(evaluate_batch(p, lams, us), want,
                           rtol=1e-13, atol=1e-13)


class TestResolventBatch:
    @settings(max_examples=60, deadline=None)
    @given(degree=st.integers(1, 3), n=st.integers(1, 8),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_fast_path_matches_nodewise(self, degree, n, seed):
        rng = np.random.default_rng(seed)
        p = MatrixPencil(tuple(
            rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            for _ in range(degree + 1)))
        assert p.triple is not None
        lams = 3.0 * (rng.standard_normal(16) + 1j * rng.standard_normal(16))
        rhs = rng.standard_normal((16, n)) + 1j * rng.standard_normal((16, n))
        try:
            want = nodewise(p, lams, rhs)
        except NearEigenvalueError:
            assume(False)
        got = resolvent_apply_batch(p, lams, rhs)
        # both routes certify |A(lam) u - f| <= 1e-10 |f|, so they can differ
        # by at most 2e-10 |f| / sigma_min(A(lam)) at each node
        for lam, f, u, v in zip(lams, rhs, got, want):
            smin = np.linalg.svd(evaluate(p, lam), compute_uv=False)[-1]
            bound = 2e-10 * np.linalg.norm(f) / smin
            assert np.linalg.norm(u - v) <= 2.0 * bound

    def test_well_conditioned_pencil_needs_no_lu(self, monkeypatch):
        p = dirichlet_pencil(8)
        lams = np.linspace(-30.0, 30.0, 41) + 0.5j
        rhs = np.ones((41, 8), dtype=complex)
        want = nodewise(p, lams, rhs)

        def refuse(*args, **kwargs):
            raise AssertionError("fell back to LU")

        monkeypatch.setattr(conescale.pencil, "_lu_fallback", refuse)
        got = resolvent_apply_batch(p, lams, rhs)
        assert np.allclose(got, want, rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("make", [
        lambda: MatrixPencil((np.zeros((1, 1)), np.eye(1))),
        lambda: MatrixPencil((np.diag([1.0, 0.0]), np.eye(2))),
        lambda: MatrixPencil((np.diag([0.0, 2.0]), np.zeros((2, 2)),
                              np.array([[2.0, 1.0], [1.0, 3.0]]))),
    ])
    @pytest.mark.parametrize("stack_entries", [1 << 21, 4])
    def test_singular_leading_coefficient_falls_back(self, make,
                                                     stack_entries,
                                                     monkeypatch):
        # a stack limit of 4 entries splits the nodes into several chunks
        monkeypatch.setattr(conescale.pencil, "_LU_STACK_ENTRIES",
                            stack_entries)
        p = make()
        assert p.triple is None
        lams = np.array([0.1, 2.0, 1.5j, -3.0 + 0.5j, 7.0, -0.25j])
        rhs = np.arange(1, 6 * p.dim + 1, dtype=complex).reshape(6, p.dim)
        assert np.array_equal(resolvent_apply_batch(p, lams, rhs),
                              nodewise(p, lams, rhs))

    def test_fallback_stacks_instead_of_looping(self, identity_pencil,
                                                monkeypatch):
        # the identity pencil has no triple; a full stack never fails, so
        # one LU solve covers every node
        shapes = []
        solve = np.linalg.solve

        def spy(a, b):
            shapes.append(a.shape)
            return solve(a, b)

        monkeypatch.setattr(np.linalg, "solve", spy)
        lams = np.linspace(-5.0, 5.0, 4096) + 1j
        rhs = np.linspace(0.0, 1.0, 4096)[:, None] + 0j
        assert np.array_equal(resolvent_apply_batch(identity_pencil, lams,
                                                    rhs), rhs)
        assert shapes == [(4096, 1, 1)]

    @pytest.mark.parametrize("stack_entries", [1 << 21, 4])
    def test_singular_node_in_fallback(self, stack_entries, monkeypatch):
        # A(lam) = diag(lam + 1, 1) is singular at lam = -1, which makes the
        # stacked LU of its chunk fail outright
        monkeypatch.setattr(conescale.pencil, "_LU_STACK_ENTRIES",
                            stack_entries)
        p = MatrixPencil((np.diag([1.0, 0.0]), np.eye(2)))
        lams = np.array([0.5, 2.0, -1.0, 3.0])
        rhs = np.ones((4, 2), dtype=complex)
        with pytest.raises(NearEigenvalueError) as info:
            resolvent_apply_batch(p, lams, rhs)
        assert info.value.node == 2
        assert info.value.lam == -1.0
        assert np.array_equal(info.value.partial,
                              nodewise(p, lams[:2], rhs[:2]))

    def test_fallback_certificate_is_the_triple_routes(self):
        # A(lam) = [[lam + 1, 1], [1, 1]] has no triple and is singular at 0;
        # its LU at lam = 1e-15 leaves a residual of 0.14 |f|
        p = MatrixPencil((np.diag([1.0, 0.0]), np.ones((2, 2))))
        assert p.triple is None
        lams = np.array([2.0, 1e-15, 3.0])
        rhs = np.array([[1.0, 2.0], [1.0, -1.0], [1.0, 0.0]], dtype=complex)
        with pytest.raises(NearEigenvalueError) as info:
            resolvent_apply_batch(p, lams, rhs)
        assert info.value.node == 1
        u = np.linalg.solve(evaluate(p, lams[1]), rhs[1])
        res = np.linalg.norm(evaluate_batch(p, lams[1:2], u[None]) - rhs[1])
        assert info.value.residual == pytest.approx(
            res / np.linalg.norm(rhs[1]), rel=1e-12)
        assert info.value.residual > 0.1
        assert np.array_equal(info.value.partial, nodewise(p, lams[:1],
                                                           rhs[:1]))
        # a row with |f| <= 1e-280 needs only a finite residual
        rhs[1] *= 1e-290
        got = resolvent_apply_batch(p, lams, rhs)
        assert np.all(np.isfinite(got))
        assert np.array_equal(got[[0, 2]], nodewise(p, lams[[0, 2]],
                                                    rhs[[0, 2]]))

    def test_node_on_eigenvalue_names_node(self, quad_pencil):
        lams = np.array([0.0, 1j, 2.0])
        with pytest.raises(NearEigenvalueError) as info:
            resolvent_apply_batch(quad_pencil, lams, np.ones((3, 1)))
        assert info.value.node == 1
        assert info.value.lam == 1j
        assert "node 1" in str(info.value)
        assert np.allclose(info.value.partial, [[1.0]], rtol=1e-14, atol=0.0)
        assert "nan" not in str(info.value)

    def test_non_finite_residual_message(self, quad_pencil):
        with pytest.raises(NearEigenvalueError) as info:
            resolvent_one(quad_pencil, 2.0, np.array([np.inf]))
        assert info.value.residual == math.inf
        assert "nan" not in str(info.value)
        with pytest.raises(NearEigenvalueError) as info:
            resolvent_apply_batch(quad_pencil, np.array([1.0, 2.0]),
                                  np.array([[1.0], [np.inf]]))
        assert info.value.node == 1
        assert "nan" not in str(info.value)


class TestFactorizationCache:
    @pytest.mark.parametrize("make, kwargs", [
        (lambda: dirichlet_pencil(8), {}),
        (lambda: dirichlet_pencil(8), {"region": Disk(0j, 40.0)}),
        (lambda: dirichlet_pencil(8), {"region": Disk(40j, 20.0)}),
        (lambda: MatrixPencil((np.zeros((1, 1)), np.eye(1))), {}),
        (lambda: MatrixPencil((np.diag([1.0, 0.0]), np.eye(2))),
         {"region": Disk(0j, 5.0)}),
        (lambda: MatrixPencil((np.eye(1), -2.0 * np.eye(1), np.eye(1))),
         {}),
    ])
    def test_cached_equals_fresh(self, make, kwargs):
        p = make()
        spectrum(p)                       # fill the cache first
        cached = spectrum(p, **kwargs), certify_spectrum(p, **kwargs)
        assert cached == (spectrum(make(), **kwargs),
                          certify_spectrum(make(), **kwargs))
        assert cached == spectrum_uncached(make(), **kwargs)

    def test_factored_once(self):
        p = dirichlet_pencil(4)
        first = p.scalars, p.eigenvalues, p.clusters, p.triple
        spectrum(p)
        spectrum(p, region=Disk(0j, 1.0))
        resolvent_apply_batch(p, np.array([0.5]), np.ones((1, 4)))
        again = p.scalars, p.eigenvalues, p.clusters, p.triple
        assert all(a is b for a, b in zip(again, first))

    @pytest.mark.parametrize("route", sorted(ROUTES))
    def test_one_eigensolve_in_any_read_order(self, monkeypatch, route):
        # every reader shares the one solve, with vectors, so the bytes of
        # every read do not depend on which came first
        make, solver = ROUTES[route]
        calls = []
        solve = conescale.pencil._companion_eig

        def spy(A, B, hermitian):
            calls.append("eigh" if hermitian else "eig" if B is None
                         else "qz")
            return solve(A, B, hermitian)

        monkeypatch.setattr(conescale.pencil, "_companion_eig", spy)
        first = None
        for order in itertools.permutations(READS):
            p = make()
            calls.clear()
            got = {name: _bits(READS[name](p)) for name in order}
            assert calls == [solver], order
            first = got if first is None else first
            assert got == first, order

    def test_singular_leading_coefficient_has_no_triple_after_spectrum(
            self, monkeypatch):
        p = MatrixPencil((np.diag([1.0, 0.0]), np.eye(2)))
        spectrum(p)

        def refuse(*args, **kwargs):
            raise AssertionError("solved again")

        monkeypatch.setattr(conescale.pencil, "_companion_eig", refuse)
        assert p.triple is None

    def test_resolvent_first_shares_eigenvalues(self, monkeypatch):
        seen = record_standard_solves(monkeypatch)
        for make in (lambda: monic_pencil(1, 2, 3, False, 1.0),
                     lambda: binomial_pencil(1, 2, 4, False, 1.0),
                     lambda: dirichlet_pencil(8)):
            p = make()
            seen.clear()
            resolvent_apply_batch(p, np.array([0.5j]), np.ones((1, p.dim)))
            solves = list(seen)
            assert len(solves) == 1 and solves[0][0] in ("eig", "eigh")
            spec = spectrum(p)
            assert seen == solves
            assert spec == spectrum_uncached(make())[0]

    def test_scaled_pencil_has_its_own(self):
        p = dirichlet_pencil(4)
        phi = math.pi / 8
        q = p.scaled(phi)
        assert q.eigenvalues is not p.eigenvalues and q.triple is not p.triple
        # A_q(lam) = A(e^{i phi} lam): eigenvalues rotate by e^{-i phi}
        rotated = [lam * np.exp(-1j * phi) for lam in spectrum(p).eigenvalues]
        assert all(min(abs(lam - mu) for mu in spectrum(q).eigenvalues) < 1e-9
                   for lam in rotated)
        w = np.array([0.3 + 0.1j, -2.0])
        f = np.ones((2, 4), dtype=complex)
        assert np.allclose(resolvent_apply_batch(q, w, f),
                           resolvent_apply_batch(p, np.exp(1j * phi) * w, f),
                           rtol=1e-12, atol=0.0)


class TestSearchRadius:
    def test_values(self, quad_pencil, identity_pencil):
        assert search_radius(quad_pencil, 0j) == 3.0
        assert search_radius(quad_pencil, 2j) == 7.0
        assert search_radius(identity_pencil, 5.0) == 3.0


def test_growth_samples_match_columnwise():
    p = MatrixPencil((np.eye(2), np.array([[0.0, 1.0], [-2.0, 0.5j]])),
                     (np.eye(2), np.diag([2.0, 3.0])))
    cones = (Cone(math.pi / 8, 0j, 1), Cone(math.pi / 8, 0j, -1))
    rep = verify_growth_condition(p, cones, 4.0, sample_count=3,
                                  angle_count=2)
    assert not rep.skipped
    basis = np.linalg.inv(np.linalg.cholesky(p.norm_forms[0])).conj().T
    for k, (lam, ratio) in enumerate(rep.samples):
        f = basis[:, k % 2]
        u = resolvent_lu(p, lam, f)
        want = (p.vector_norm(u, 1) + abs(lam) * p.vector_norm(u, 0)) \
            / p.vector_norm(f, 0)
        assert ratio == pytest.approx(want, rel=1e-12)


def test_growth_probe_keeps_columns_before_a_failure(monkeypatch):
    p = MatrixPencil((np.eye(2), np.array([[0.0, 1.0], [-2.0, 0.5j]])))
    cones = (Cone(math.pi / 8, 0j, 1), Cone(math.pi / 8, 0j, -1))
    real = conescale.pencil.resolvent_apply_batch
    calls = []

    def fail_first(p, lams, rhs):
        sols = real(p, lams, rhs)
        calls.append(lams[0])
        if len(calls) == 1:
            # as if column 1 failed its certificate: no second solve follows
            raise NearEigenvalueError(lams[1], 1.0, node=1, partial=sols[:1])
        return sols

    monkeypatch.setattr(conescale.pencil, "resolvent_apply_batch", fail_first)
    rep = verify_growth_condition(p, cones, 4.0, sample_count=2,
                                  angle_count=2)
    assert rep.skipped == (calls[0],)
    # one sample from the failed lam, then two per later lam
    assert [lam for lam, _ in rep.samples[:3]] == [calls[0], calls[1],
                                                  calls[1]]
    assert len(rep.samples) == 2 * len(calls) - 1


def monic_pencil(seed, degree, n, real, magnitude):
    """A(lam) = lam^m I + sum_j A_j lam^(m-j), the A_j Gaussian times
    ``magnitude``, complex unless ``real``."""
    rng = np.random.default_rng(seed)

    def draw():
        c = rng.standard_normal((n, n))
        if not real:
            c = c + 1j * rng.standard_normal((n, n))
        return magnitude * c

    return MatrixPencil((np.eye(n),) + tuple(draw() for _ in range(degree)))


def _refuse(name):
    def refuse(*args, **kwargs):
        raise AssertionError(f"{name} was called")
    return refuse


class TestStandardCompanion:
    """Pencils are solved by one of three routes: a binomial pencil
    lam^m I + A_m through the n x n eigenproblem of -A_m (TestBinomial),
    any other pencil led by exactly I through its block companion by
    standard QR, both in real arithmetic for real coefficients, and every
    other pencil by QZ, which companion_qz_eigvals keeps as the oracle."""

    # fast and QZ eigenvalues agree to this, relative to max(1, |lam|)
    # (the largest gap seen over 3000 such pencils was 3e-14)
    TOL_QZ = 1e-9

    # magnitudes up to 10 keep the certificate, whose bound is not weighted
    # by |lam|^j, at least 1000 times below its bound over 1500 pencils each;
    # at magnitude 1e3 a cubic can fail it with QZ eigenvalues too
    @settings(max_examples=150, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1), st.integers(1, 3), st.integers(1, 6),
           st.booleans(), st.sampled_from([1e-3, 1.0, 10.0]))
    def test_matches_qz_and_certifies(self, seed, degree, n, real, magnitude):
        p = monic_pencil(seed, degree, n, real, magnitude)
        fast = p.eigenvalues
        qz = companion_qz_eigvals(p)
        assert fast.dtype == complex and fast.shape == qz.shape
        # the multisets agree: match them by least total distance
        gaps = np.abs(fast[:, None] - qz[None, :])
        rows, cols = scipy.optimize.linear_sum_assignment(gaps)
        assert np.all(gaps[rows, cols]
                      <= self.TOL_QZ * np.maximum(1.0, np.abs(qz[cols])))
        residuals, _ = certify_spectrum(p)
        assert max(residuals) <= 1e-8 * max(np.linalg.norm(c)
                                            for c in p.coefficients)
        if real:
            # dgeev returns complex eigenvalues as exact conjugate pairs
            assert np.array_equal(np.sort_complex(fast),
                                  np.sort_complex(fast.conj()))
            lams = spectrum(p).eigenvalues
            assert set(lams) == {lam.conjugate() for lam in lams}

    # the certificate's bound is an eigenvalue backward error of 1e-8, which
    # grows with |lam|^j as the rounding in A(lam) does; the example failed
    # the unweighted bound 1e-8 max_j |A_j| (5.0e-5 against 4.2e-5)
    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1), st.integers(1, 3), st.integers(1, 6),
           st.booleans(), st.just(1e3))
    @example(726143587, 3, 3, False, 1e3)
    def test_large_magnitudes_certify(self, seed, degree, n, real, magnitude):
        _, notes = certify_spectrum(monic_pencil(seed, degree, n, real,
                                                 magnitude))
        assert not [note for note in notes if "fails" in note]

    def test_identity_leading_runs_no_qz(self, monkeypatch):
        monkeypatch.setattr(scipy.linalg, "eig", _refuse("scipy.linalg.eig"))
        monkeypatch.setattr(scipy.linalg, "eigvals",
                            _refuse("scipy.linalg.eigvals"))
        for p in (dirichlet_pencil(6), monic_pencil(1, 2, 3, False, 1.0)):
            assert len(spectrum(p).eigenvalues) == 2 * p.dim
            lams = np.array([0.5, 2.0 + 1.0j, -3.0j])
            f = np.ones((3, p.dim), dtype=complex)
            assert np.allclose(resolvent_apply_batch(p, lams, f),
                               nodewise(p, lams, f), rtol=1e-10, atol=0.0)
            assert p.triple is not None

    @pytest.mark.parametrize("make, dropped", [
        (notes_pencil, 1),
        (lambda: MatrixPencil((2.0 * np.eye(2), np.diag([1.0, 3j]))), 0),
        (lambda: dirichlet_pencil(4).scaled(math.pi / 8), 0),
    ], ids=["singular_leading", "twice_identity", "scaled"])
    def test_other_leading_goes_through_qz(self, monkeypatch, make, dropped):
        calls = []
        for name in ("eig", "eigvals"):
            def recording(*args, _solve=getattr(scipy.linalg, name),
                          _name=name, **kwargs):
                calls.append(_name)
                return _solve(*args, **kwargs)
            monkeypatch.setattr(scipy.linalg, name, recording)
        monkeypatch.setattr(np.linalg, "eig", _refuse("numpy.linalg.eig"))
        monkeypatch.setattr(np.linalg, "eigvals",
                            _refuse("numpy.linalg.eigvals"))
        p = make()
        spectrum(p)
        assert (p.triple is None) == bool(dropped)
        assert calls == ["eig"]
        assert np.array_equal(p.eigenvalues,
                              companion_qz_eigvals(make()), equal_nan=True)
        dropped_notes = [note for note in certify_spectrum(p)[1]
                         if note.startswith("dropped")]
        assert dropped_notes == (
            [f"dropped {dropped} eigenvalue(s) at or near infinity"]
            if dropped else [])


@pytest.mark.parametrize("coefficients", [(1.0, -2e8),
                                          (1.0, -(2e8 + 1.0), 2e8)],
                         ids=["binomial", "companion"])
def test_large_eigenvalue_kept_off_qz(coefficients):
    # only QZ meets a singular A_0, so a monic pencil drops nothing: its
    # eigenvalue 2e8 is finite and listed
    p = MatrixPencil(tuple(np.array([[c]]) for c in coefficients))
    lams = spectrum(p).eigenvalues
    assert lams[-1] == 2e8 and len(lams) == len(coefficients) - 1
    assert not any(n.startswith("dropped") for n in certify_spectrum(p)[1])
    assert (spectrum(p), certify_spectrum(p)) == spectrum_uncached(p)


def test_large_eigenvalue_of_scaled_pencil_kept_on_qz():
    # e^{i phi} lam - 2e8 goes through QZ (A_0 = e^{i phi} is not I); its
    # pair (alpha, beta) has |beta| = |B|_F, so 2e8 e^{-i phi} is finite
    phi = math.pi / 16
    p = MatrixPencil((np.eye(1), -2e8 * np.eye(1))).scaled(phi)
    lams = spectrum(p).eigenvalues
    assert len(lams) == 1
    assert abs(lams[0] - 2e8 * cmath.exp(-1j * phi)) <= 1e-15 * 2e8
    assert not any(n.startswith("dropped") for n in certify_spectrum(p)[1])
    assert (spectrum(p), certify_spectrum(p)) == spectrum_uncached(p)


def binomial_pencil(seed, degree, n, real, magnitude):
    """A(lam) = lam^m I + A_m, A_m Gaussian times ``magnitude``, complex
    unless ``real``."""
    rng = np.random.default_rng(seed)
    c = rng.standard_normal((n, n))
    if not real:
        c = c + 1j * rng.standard_normal((n, n))
    return MatrixPencil((np.eye(n),) + (np.zeros((n, n)),) * (degree - 1)
                        + (magnitude * c,))


def hermitian_binomial(n):
    """lam^2 I + K with K complex Hermitian and positive definite."""
    rng = np.random.default_rng(5)
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return MatrixPencil((np.eye(n), np.zeros((n, n)),
                         g @ g.conj().T + np.eye(n)))


def hermitian_binomial_pencil(seed, degree, n, real, magnitude):
    """A(lam) = lam^m I + A_m, A_m the exactly Hermitian part of a Gaussian
    times ``magnitude``, real symmetric when ``real``."""
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((n, n))
    if not real:
        g = g + 1j * rng.standard_normal((n, n))
    c = magnitude * (0.5 * (g + g.conj().T))
    assert np.array_equal(c, c.conj().T)
    return MatrixPencil((np.eye(n),) + (np.zeros((n, n)),) * (degree - 1)
                        + (c,))


def one_ulp_off_hermitian(real):
    """lam^2 I + K with K one ulp off Hermitian in one entry."""
    k = hermitian_binomial_pencil(4, 2, 4, real, 1.0).coefficients[-1]
    k = np.array(k.real if real else k)
    k[0, 1] += np.spacing(k[0, 1].real)
    assert not np.array_equal(k, k.conj().T)
    return MatrixPencil((np.eye(4), np.zeros((4, 4)), k))


def record_standard_solves(monkeypatch):
    """(name, shape, dtype kind) of every matrix numpy.linalg.eig, eigvals
    or eigh gets."""
    seen = []
    for name in ("eig", "eigvals", "eigh"):
        def recording(a, *args, _solve=getattr(np.linalg, name), _name=name,
                      **kwargs):
            seen.append((_name, a.shape, a.dtype.kind))
            return _solve(a, *args, **kwargs)
        monkeypatch.setattr(np.linalg, name, recording)
    return seen


class TestBinomial:
    """A binomial pencil lam^m I + A_m is solved through -A_m W = W
    diag(nu), by one eigh when -A_m is exactly Hermitian: its eigenvalues
    are the m-th roots of each nu, and its triple is the modal form
    W diag(1 / (lam^m - nu)) W^{-1} (W^{-1} = W^H for eigh)."""

    # nodes are drawn on the scale of the spectrum, where the companion and
    # the modal triples both certify; far nodes are checked separately
    # (test_far_nodes_need_no_partial_fractions)
    @settings(max_examples=150, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1), st.integers(1, 3), st.integers(1, 6),
           st.booleans(), st.sampled_from([1e-3, 1.0, 10.0]))
    def test_matches_qz_and_lu(self, seed, degree, n, real, magnitude):
        p = binomial_pencil(seed, degree, n, real, magnitude)
        fast = p.eigenvalues
        qz = companion_qz_eigvals(p)
        assert fast.dtype == complex and fast.shape == qz.shape
        gaps = np.abs(fast[:, None] - qz[None, :])
        rows, cols = scipy.optimize.linear_sum_assignment(gaps)
        assert np.all(gaps[rows, cols] <= TestStandardCompanion.TOL_QZ
                      * np.maximum(1.0, np.abs(qz[cols])))
        if degree == 2:
            assert np.array_equal(np.sort_complex(fast),
                                  np.sort_complex(-fast))
        rng = np.random.default_rng(seed + 1)
        scale = max(1.0, float(np.max(np.abs(fast))))
        lams = scale * (rng.standard_normal(16)
                        + 1j * rng.standard_normal(16))
        rhs = rng.standard_normal((16, n)) + 1j * rng.standard_normal((16, n))
        try:
            want = nodewise(p, lams, rhs)
        except NearEigenvalueError:
            assume(False)
        with mock.patch.object(conescale.pencil, "_lu_fallback",
                               _refuse("the LU fallback")):
            got = resolvent_apply_batch(p, lams, rhs)
        assert np.all(np.linalg.norm(got - want, axis=1)
                      <= 1e-10 * np.linalg.norm(want, axis=1))

    # at magnitude 1e-3 the nodes, 3x complex Gaussians, lie far outside
    # the spectrum, where partial fractions lost accuracy
    @settings(max_examples=150, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1), st.integers(1, 3), st.integers(1, 6),
           st.booleans(), st.sampled_from([1e-3, 1.0]))
    def test_hermitian_matches_qz_and_lu(self, seed, degree, n, real,
                                         magnitude):
        p = hermitian_binomial_pencil(seed, degree, n, real, magnitude)
        with mock.patch.object(np.linalg, "eig", _refuse("numpy.linalg.eig")):
            fast = p.eigenvalues
        qz = companion_qz_eigvals(p)
        assert fast.dtype == complex and fast.shape == qz.shape
        gaps = np.abs(fast[:, None] - qz[None, :])
        rows, cols = scipy.optimize.linear_sum_assignment(gaps)
        assert np.all(gaps[rows, cols] <= TestStandardCompanion.TOL_QZ
                      * np.maximum(1.0, np.abs(qz[cols])))
        if degree == 2:
            # nu is real: each pair of roots is exactly +-sqrt(|nu|) on one
            # axis, the imaginary one where -nu > 0
            assert np.all((fast.real == 0.0) | (fast.imag == 0.0))
        w, X, _, power = p.triple
        assert power == degree and np.all(w.imag == 0.0)
        assert np.allclose(X.conj().T @ X, np.eye(n), rtol=0.0, atol=1e-13)
        rng = np.random.default_rng(seed + 1)
        lams = 3.0 * (rng.standard_normal(16) + 1j * rng.standard_normal(16))
        rhs = rng.standard_normal((16, n)) + 1j * rng.standard_normal((16, n))
        try:
            want = nodewise(p, lams, rhs)
        except NearEigenvalueError:
            assume(False)
        with mock.patch.object(conescale.pencil, "_lu_fallback",
                               _refuse("the LU fallback")):
            got = resolvent_apply_batch(p, lams, rhs)
        assert np.all(np.linalg.norm(got - want, axis=1)
                      <= 1e-10 * np.linalg.norm(want, axis=1))

    def test_far_nodes_need_no_partial_fractions(self):
        # lam^3 I + A_3 with A_3 a 1e-3 complex Gaussian at nodes 3x complex
        # Gaussians: the partial fractions' three terms per mode cancel
        # there, the modal n terms do not
        modal, fractions = [], []
        for seed in range(20):
            p = binomial_pencil(seed, 3, 4, False, 1e-3)
            rng = np.random.default_rng(seed + 1)
            lams = 3.0 * (rng.standard_normal(16)
                          + 1j * rng.standard_normal(16))
            rhs = (rng.standard_normal((16, 4))
                   + 1j * rng.standard_normal((16, 4)))
            scale = np.linalg.norm(rhs, axis=1)
            with mock.patch.object(conescale.pencil, "_lu_fallback",
                                   _refuse("the LU fallback")):
                u = resolvent_apply_batch(p, lams, rhs)
            modal.append(np.linalg.norm(evaluate_batch(p, lams, u) - rhs,
                                        axis=1) / scale)
            w, X, Y = partial_fraction_triple(p)
            v = ((rhs @ Y.T) / (lams[:, None] - w)) @ X.T
            fractions.append(np.linalg.norm(evaluate_batch(p, lams, v) - rhs,
                                            axis=1) / scale)
        assert np.max(modal) <= 1e-14
        assert np.median(fractions) >= 10.0 * np.max(modal)

    @pytest.mark.parametrize("make, want", [
        (lambda: dirichlet_pencil(5), [("eigh", "f")]),
        (lambda: hermitian_binomial(4), [("eigh", "c")]),
        (lambda: binomial_pencil(3, 2, 4, False, 1.0), [("eig", "c")]),
        (lambda: one_ulp_off_hermitian(True), [("eig", "f")]),
        (lambda: one_ulp_off_hermitian(False), [("eig", "c")]),
    ], ids=["dirichlet", "hermitian", "non_hermitian", "ulp_off_real",
            "ulp_off_complex"])
    def test_solves_n_by_n(self, monkeypatch, make, want):
        # one solve serves both the eigenvalues and the triple: eigh for an
        # exactly Hermitian -A_m, eig for any other
        p = make()
        seen = record_standard_solves(monkeypatch)
        spectrum(p)
        assert p.triple is not None
        n = p.dim
        assert seen == [(name, (n, n), kind) for name, kind in want]

    def test_other_monic_takes_companion(self, monkeypatch):
        seen = record_standard_solves(monkeypatch)
        p = monic_pencil(1, 2, 3, True, 1.0)
        spectrum(p)
        assert p.triple is not None
        assert seen == [("eig", (6, 6), "f")]

    @pytest.mark.parametrize("a", [np.diag([0.0, 4.0]),
                                   np.array([[0.0, 1.0], [0.0, 4.0]])],
                             ids=["hermitian", "non_hermitian"])
    def test_zero_root_keeps_triple(self, monkeypatch, a):
        # 0 is a defective double eigenvalue of lam^2 + 0, but the modal
        # triple divides by lam^2 - 0 and needs no eigenvector at it
        p = MatrixPencil((np.eye(2), np.zeros((2, 2)), a))
        spec = spectrum(p)
        assert spec == SpectrumReport((-2j, 0j, 2j), (1, 2, 1))
        assert ("cluster at 0j: multiplicity 2 by distance; Jordan chains "
                "unresolved, may be defective") in certify_spectrum(p)[1]
        assert p.triple is not None
        monkeypatch.setattr(conescale.pencil, "_lu_fallback",
                            _refuse("the LU fallback"))
        lams = np.array([0.5, 1.0 + 1.0j, -3.0, 0.25j])
        rhs = np.arange(1, 9, dtype=complex).reshape(4, 2)
        assert np.allclose(resolvent_apply_batch(p, lams, rhs),
                           nodewise(p, lams, rhs), rtol=1e-14, atol=0.0)

    def test_zero_root_triple_first(self):
        p = MatrixPencil((np.eye(2), np.zeros((2, 2)), np.diag([0.0, 4.0])))
        assert p.triple is not None
        assert spectrum(p) == SpectrumReport((-2j, 0j, 2j), (1, 2, 1))

    def test_linear_zero_root_keeps_triple(self, monkeypatch):
        # for m = 1 a zero eigenvalue is simple
        p = MatrixPencil((np.eye(2), np.diag([0.0, 1.0])))
        assert p.triple is not None
        monkeypatch.setattr(conescale.pencil, "_lu_fallback",
                            _refuse("the LU fallback"))
        lams = np.array([0.5, 1.0 + 1.0j, -3.0])
        rhs = np.ones((3, 2), dtype=complex)
        assert np.allclose(resolvent_apply_batch(p, lams, rhs),
                           nodewise(p, lams, rhs), rtol=1e-14, atol=0.0)
