import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import conescale.pencil
from conescale import (Cone, Disk, GaussianRhs, Grid, MatrixPencil,
                       NearEigenvalueError, SpectrumReport, cone_clearance,
                       constant_problem, evaluate, resolvent_apply,
                       solve_const, spectrum, verify_growth_condition)
from conescale.cli import main as cli_main
from conescale.pencil import (_cluster, evaluate_batch, resolvent_apply_batch,
                              search_radius)
from _oracles import (cluster_pairwise, fd_laplacian_eigenvalues,
                      spectrum_uncached)


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


class TestEvaluate:
    def test_identity(self, identity_pencil):
        assert np.allclose(evaluate(identity_pencil, 5.0), np.eye(1))

    def test_root(self, quad_pencil):
        assert abs(evaluate(quad_pencil, 1j)[0, 0]) < 1e-15

    def test_value(self, quad_pencil):
        assert evaluate(quad_pencil, 2.0)[0, 0] == pytest.approx(5.0)


class TestResolvent:
    def test_identity(self, identity_pencil):
        f = np.array([3.0 - 1.0j])
        assert np.allclose(resolvent_apply(identity_pencil, 7.7, f), f)

    def test_scalar(self, quad_pencil):
        assert resolvent_apply(quad_pencil, 2.0,
                               np.array([10.0]))[0] == pytest.approx(2.0)

    def test_diagonal(self):
        p = MatrixPencil((np.eye(2), -np.diag([1.0, 2.0])))
        u = resolvent_apply(p, 0.0, np.array([1.0, 1.0]))
        assert np.allclose(u, [-1.0, -0.5])

    def test_near_eigenvalue(self, quad_pencil):
        with pytest.raises(NearEigenvalueError):
            resolvent_apply(quad_pencil, 1j, np.array([1.0]))


class TestSpectrum:
    def test_identity_empty(self, identity_pencil):
        spec = spectrum(identity_pencil)
        assert spec.eigenvalues == ()
        assert any("infinity" in n for n in spec.notes)

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
        scale = p.coefficient_scale()
        assert all(r <= 1e-8 * scale for r in spec.residuals)

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
        # match as sets: lexicographic order is noise-sensitive at ties
        assert all(min(abs(x - y) for y in b) < 1e-7 for x in a)

    def test_region_filter(self, quad_pencil):
        spec = spectrum(quad_pencil, region=Disk(1j, 0.5))
        assert spec.eigenvalues == (1j,)

    def test_defective_flagged(self):
        # (lam - 1)^2 has a double root at 1
        p = MatrixPencil((np.eye(1), -2.0 * np.eye(1), np.eye(1)))
        spec = spectrum(p, tol_cluster=1e-5)
        assert spec.multiplicities == (2,)
        assert any("defective" in n for n in spec.notes)


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
        assert any("cluster at" in n and "defective" in n for n in spec.notes)

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


class TestLazyCertificate:
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
        assert calls == []
        inside = len(spec.eigenvalues)
        assert inside == 4
        spec.residuals
        assert len(calls) == inside
        spec.notes
        spectrum(p, region=Disk(10j, 5.0)).residuals
        assert len(calls) == inside
        spectrum(p).residuals
        assert len(calls) == 16

    @pytest.mark.parametrize("make", [lambda: dirichlet_pencil(8),
                                      notes_pencil])
    @pytest.mark.parametrize("first", ["clearance", "region", "full", "none"])
    def test_any_read_order_matches_uncached(self, make, first):
        p = make()
        region = Disk(10j, 5.0) if p.dim == 8 else Disk(1.0, 0.5)
        if first == "clearance":
            cone_clearance(p, Cone(math.pi / 8, 0j, 1), search_radius(p, 0j))
        elif first == "region":
            spectrum(p, region=region).notes
        elif first == "full":
            spectrum(p).residuals
        for kwargs in ({"region": region}, {}):
            spec = spectrum(p, **kwargs)
            want = spectrum_uncached(make(), **kwargs)
            assert (spec.notes, spec.residuals) == (want.notes, want.residuals)
            assert spec == want

    def test_constructor_takes_the_certificate(self):
        spec = SpectrumReport((1j,), (2,), (0.5,), ("note",))
        assert list(spec) == [(1j, 2, 0.5)] and spec.notes == ("note",)
        assert spec == SpectrumReport((1j,), (2,), (0.5,), ("note",))
        assert spec != SpectrumReport((1j,), (2,), (0.5,))
        assert spec != SpectrumReport((1j,), (2,), (0.25,), ("note",))


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
    u = resolvent_apply(p, lam, f)
    residual = np.linalg.norm(evaluate(p, lam) @ u - f)
    assert residual <= 1e-10 * max(np.linalg.norm(f), 1.0)


def nodewise(p, lams, rhs):
    """The per-node LU route the batched resolvent is checked against."""
    return np.array([resolvent_apply(p, lam, f) for lam, f in zip(lams, rhs)])


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
        assert p.factorization.triple is not None
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
        assert p.factorization.triple is None
        lams = np.array([0.1, 2.0, 1.5j, -3.0 + 0.5j, 7.0, -0.25j])
        rhs = np.arange(1, 6 * p.dim + 1, dtype=complex).reshape(6, p.dim)
        assert np.array_equal(resolvent_apply_batch(p, lams, rhs),
                              nodewise(p, lams, rhs))

    def test_fallback_stacks_instead_of_looping(self, identity_pencil,
                                                monkeypatch):
        # the identity pencil has no triple; a full stack never fails, so
        # no node is solved alone
        def refuse(*args, **kwargs):
            raise AssertionError("solved a node alone")

        monkeypatch.setattr(conescale.pencil, "resolvent_apply", refuse)
        lams = np.linspace(-5.0, 5.0, 4096) + 1j
        rhs = np.linspace(0.0, 1.0, 4096)[:, None] + 0j
        assert np.array_equal(resolvent_apply_batch(identity_pencil, lams,
                                                    rhs), rhs)

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
            resolvent_apply(quad_pencil, 2.0, np.array([np.inf]))
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
         {"tol_cluster": 1e-5}),
    ])
    def test_cached_equals_fresh(self, make, kwargs):
        p = make()
        spectrum(p)                       # fill the cache first
        cached = spectrum(p, **kwargs)
        assert cached == spectrum(make(), **kwargs)
        assert cached == spectrum_uncached(make(), **kwargs)

    def test_factored_once(self):
        p = dirichlet_pencil(4)
        first = p.factorization
        spectrum(p)
        spectrum(p, region=Disk(0j, 1.0))
        resolvent_apply_batch(p, np.array([0.5]), np.ones((1, 4)))
        assert p.factorization is first

    def test_spectrum_alone_computes_no_eigenvectors(self):
        p = dirichlet_pencil(8)
        spectrum(p)
        assert "triple" not in vars(p.factorization)
        first = p.factorization.eigenvalues
        assert p.factorization.triple is not None
        assert p.factorization.eigenvalues is first

    def test_known_singular_leading_coefficient_skips_eigenvectors(
            self, monkeypatch):
        p = MatrixPencil((np.diag([1.0, 0.0]), np.eye(2)))
        spectrum(p)

        def refuse(*args, **kwargs):
            raise AssertionError("computed eigenvectors")

        monkeypatch.setattr(conescale.pencil, "_companion_eig", refuse)
        assert p.factorization.triple is None

    def test_resolvent_first_shares_eigenvalues(self):
        p = dirichlet_pencil(8)
        resolvent_apply_batch(p, np.array([0.5j]), np.ones((1, 8)))
        w, _, _ = p.factorization.triple
        assert p.factorization.eigenvalues is w
        assert spectrum(p) == spectrum_uncached(dirichlet_pencil(8))

    def test_scaled_pencil_has_its_own(self):
        p = dirichlet_pencil(4)
        phi = math.pi / 8
        q = p.scaled(phi)
        assert q.factorization is not p.factorization
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
        u = resolvent_apply(p, lam, f)
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
