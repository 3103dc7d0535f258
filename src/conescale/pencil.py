"""Polynomial matrix pencils over nested finite-dimensional spaces.

A pencil is A(lam) = sum_j A_j lam^(m-j) with complex n x n coefficients
A_0..A_m and positive-definite Hermitian forms H_0..H_m that define the
nested norms |u|_j = <H_j u, u>^(1/2), |u|_j <= |u|_(j+1).  The module
provides evaluation, resolvent solves with residual certification, the full
finite spectrum, cone-clearance tests, and an empirical probe of the
resolvent growth bound

    sum_j |lam|^j |A(lam)^{-1} f|_(m-j) <= c |f|_0

over sampled lam in a closed cone pair.

MatrixPencil is the one pencil object.  On first use it classifies each
coefficient as exactly zero, exactly c I or dense (``scalars``), and that
classification picks the route of its one eigensolve, run with vectors on
first need and cached with everything read from it.  A binomial pencil
lam^m I + A_m (A_0 is I and A_1..A_(m-1) are zero, as for the cylinder
lam^2 I + L) solves the n x n problem -A_m W = W diag(nu), by eigh when
-A_m is exactly Hermitian (the cylinder's self-adjoint cross-section
operator; W is then unitary), by Hessenberg QR otherwise; its eigenvalues
are the m-th roots of each nu, exactly +-sqrt(nu) when m = 2.  Any other
pencil whose A_0 is I solves its block companion A V = V J (lam B - A with
B = I) by Hessenberg QR.  Every other pencil, a singular or scaled A_0
included, goes through lam B - A by QZ, the only use of scipy, which is
imported on the first QZ solve.  Both standard routes run in real
arithmetic when every coefficient is real (so complex eigenvalues come in
exact conjugate pairs).

``eigenvalues`` holds all m n eigenvalues (inf where A_0 is singular);
``clusters`` groups them once into single-linkage clusters (the connected
components of |a - b| <= TOL_CLUSTER), in report order, which
``spectrum`` and ``certify_spectrum`` filter by region.  The same solve's
eigenvectors give the ``triple``, formed when a batched resolvent first
needs it, with

    A(lam)^{-1} = X (lam^power - J)^{-1} Y:

X = V[:n] and Y = (B V)^{-1}[:, (m-1)n:] from A V = B V J, power 1; or for
a binomial pencil the modal form X = W, Y = W^{-1} (W^H when W is
unitary), J = diag(nu) and power m.  resolvent_apply_batch applies it to N
nodes at once and certifies every node.  Every read order gives the same
bytes.
"""

import cmath
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import EigenSolverError, NearEigenvalueError, ValidationError
from .geometry import Disk

TOL_CLUSTER = 1e-7
TOL_MARGIN = 1e-9
TOL_INF = 1e-8
RESOLVENT_TOL = 1e-10
# probe points for the must-be-invertible-somewhere check; an identically
# singular det would vanish at all of them, a generic one at none
_PROBES = (0.0, 1.0, -1.0, 1j, 0.7548271 + 0.3712994j)


@dataclass(frozen=True)
class MatrixPencil:
    """Coefficients A_0..A_m (A_j multiplies lam^(m-j)) plus norm forms, all
    finite; the module docstring describes its cached properties."""

    coefficients: tuple
    norm_forms: tuple = None

    def __post_init__(self):
        coeffs = tuple(np.asarray(c, dtype=complex) for c in self.coefficients)
        if len(coeffs) < 2:
            raise ValidationError("a pencil needs degree >= 1 (at least two coefficients)")
        n = coeffs[0].shape[0]
        for j, c in enumerate(coeffs):
            if c.shape != (n, n):
                raise ValidationError("all coefficients must be square with a common size")
            if not np.all(np.isfinite(c)):
                raise ValidationError(f"coefficient {j} has a non-finite entry")
            c.flags.writeable = False
        object.__setattr__(self, "coefficients", coeffs)
        if self.norm_forms is None:
            forms = tuple(np.eye(n) for _ in coeffs)
        else:
            forms = tuple(np.asarray(h, dtype=complex) for h in self.norm_forms)
            if len(forms) != len(coeffs):
                raise ValidationError("need one norm form per coefficient")
            for j, h in enumerate(forms):
                if h.shape != (n, n):
                    raise ValidationError("norm forms must match the pencil dimension")
                if not np.all(np.isfinite(h)):
                    raise ValidationError(f"norm form {j} has a non-finite entry")
                if np.max(np.abs(h - h.conj().T)) > 1e-12 * max(1.0, np.max(np.abs(h))):
                    raise ValidationError(f"norm form {j} is not Hermitian")
                try:
                    np.linalg.cholesky(h)
                except np.linalg.LinAlgError:
                    raise ValidationError(f"norm form {j} is not positive definite")
                h.flags.writeable = False
            # nested-norm axiom |u|_j <= |u|_{j+1}: H_{j+1} - H_j must be PSD
            for j in range(len(forms) - 1):
                gap = np.linalg.eigvalsh(forms[j + 1] - forms[j])
                if gap[0] < -1e-10 * max(1.0, float(np.max(np.abs(forms[j + 1])))):
                    raise ValidationError(
                        f"norm forms are not nested: H_{j + 1} - H_{j} has a "
                        f"negative eigenvalue {gap[0]:.3g}"
                    )
        object.__setattr__(self, "norm_forms", forms)
        # the sign of slogdet is 0 only for an exactly singular matrix;
        # det itself under- or overflows at moderate sizes and scales
        if not any(np.linalg.slogdet(evaluate(self, lam))[0] != 0
                   for lam in _PROBES):
            raise ValidationError("pencil is singular at every probe point")

    @property
    def degree(self):
        return len(self.coefficients) - 1

    @property
    def dim(self):
        return self.coefficients[0].shape[0]

    def vector_norm(self, u, j):
        h = self.norm_forms[j]
        return math.sqrt(max(float(np.real(np.conj(u) @ (h @ u))), 0.0))

    def scaled(self, phi):
        """The pencil of A(e^{i phi} lam): coefficients A_j e^{i phi (m-j)}."""
        m = self.degree
        coeffs = tuple(c * cmath.exp(1j * phi * (m - j))
                       for j, c in enumerate(self.coefficients))
        return MatrixPencil(coeffs, self.norm_forms)

    @cached_property
    def scalars(self):
        """Per coefficient: c if it is exactly c I (0 if zero), else None."""
        eye = np.eye(self.dim)
        return tuple(None if np.any(c - c[0, 0] * eye) else complex(c[0, 0])
                     for c in self.coefficients)

    @cached_property
    def _modes(self):
        """(nu, V, B, power, hermitian) from the one eigensolve of lam B - A
        (B None for I; hermitian when eigh ran)."""
        s = self.scalars
        real = s[0] == 1 and not any(np.any(c.imag) for c in self.coefficients)
        if s[0] == 1 and all(c == 0 for c in s[1:-1]):
            c = self.coefficients[-1]
            k = -(c.real if real else c)
            hermitian = np.array_equal(k, k.conj().T)
            return _companion_eig(k, None, hermitian) + (None, self.degree, hermitian)
        a, b = _companion(self, real)
        return _companion_eig(a, b, False) + (b, 1, False)

    @cached_property
    def eigenvalues(self):
        """All m n eigenvalues, read-only."""
        nu, _, _, power, _ = self._modes
        vals = _roots(nu, power).ravel()
        vals.flags.writeable = False
        return vals

    @cached_property
    def clusters(self):
        """(head notes, cluster means, cluster sizes), in report order."""
        raw = self.eigenvalues
        kept = raw[np.isfinite(raw)]
        head = ()
        if raw.size - kept.size:
            head = (f"dropped {raw.size - kept.size} eigenvalue(s) at or near "
                    f"infinity",)
        clusters = _cluster(kept, TOL_CLUSTER)
        # a singleton's mean is its member (+0j turns -0.0 into 0.0, as
        # np.mean's sum does)
        means = np.array([c[0] + 0j if c.size == 1 else np.mean(c)
                          for c in clusters], dtype=complex)
        order = _report_order(means)
        return (head, tuple(complex(means[k]) for k in order),
                tuple(len(clusters[k]) for k in order))

    @cached_property
    def triple(self):
        """(w, X, Y, power) with A(lam)^{-1} = X diag(1 / (lam^power - w)) Y,
        or None when the pencil has none; read-only."""
        nu, V, B, power, hermitian = self._modes
        if not np.all(np.isfinite(nu)):
            return None  # singular A_0
        if hermitian:
            X, Y = V, V.conj().T
        else:
            # lam B - A = B V (lam - J) V^{-1}: the first block row of its
            # inverse on the last block column is A(lam)^{-1}
            try:
                Y = np.linalg.inv(V if B is None else B @ V)[:, -self.dim:]
            except np.linalg.LinAlgError:
                return None
            if not np.all(np.isfinite(Y)):
                return None
            X = V[:self.dim]
        # shared by every later solve on this pencil
        for part in (nu, X, Y):
            part.flags.writeable = False
        return nu, X, Y, power


def _roots(nu, m):
    """The m-th roots of each nu, as an (m, len(nu)) array.

    Row r holds nu^(1/m) e^(2 pi i r / m) (principal branch); for m = 2 the
    rows are exactly sqrt(nu) and -sqrt(nu).
    """
    if m == 1:
        return nu[None]
    if m == 2:
        root = np.sqrt(nu)
        return np.stack([root, -root])
    return nu ** (1.0 / m) * np.exp(2j * np.pi * np.arange(m) / m)[:, None]


def _companion(p, real):
    """The block companion pencil lam * B - A of p, as (A, B): B is None
    (the identity) when A_0 is I, and A is real when ``real``."""
    m, n = p.degree, p.dim
    # A holds the companion blocks and B carries the leading coefficient,
    # so a singular A_0 shows up as infinite lams
    A = np.zeros((m * n, m * n), dtype=float if real else complex)
    for k in range(m - 1):
        A[k * n:(k + 1) * n, (k + 1) * n:(k + 2) * n] = np.eye(n)
    for k in range(m):
        # row of powers: -A_m, -A_{m-1}, ..., -A_1
        c = p.coefficients[m - k]
        A[(m - 1) * n:, k * n:(k + 1) * n] = -(c.real if real else c)
    if p.scalars[0] == 1:
        return A, None
    B = np.eye(m * n, dtype=complex)
    B[(m - 1) * n:, (m - 1) * n:] = p.coefficients[0]
    return A, B


def _companion_eig(A, B, hermitian):
    """Eigenvalues nu and eigenvectors V of lam B - A, both complex, by the
    module's one eigensolve: eigh when ``hermitian``, eig when B is None
    (the identity), QZ otherwise (scipy, imported on the first QZ solve).
    A QZ pair (alpha, beta) with |beta| <= TOL_INF |B|_F is an eigenvalue
    at or near infinity, nu = inf, however large or small alpha is; every
    other nu is alpha / beta.  LAPACK failures are raised as
    EigenSolverError."""
    try:
        if hermitian:
            out = np.linalg.eigh(A)
        elif B is None:
            out = np.linalg.eig(A)
        else:
            import scipy.linalg
            (alpha, beta), V = scipy.linalg.eig(A, B, homogeneous_eigvals=True)
            finite = np.abs(beta) > TOL_INF * np.linalg.norm(B)
            out = np.divide(alpha, beta, out=np.full_like(alpha, np.inf),
                            where=finite), V
    except (np.linalg.LinAlgError, ValueError) as exc:
        raise EigenSolverError(
            f"companion eigenvalue solve failed: {exc}") from exc
    return tuple(a.astype(complex, copy=False) for a in out)


def evaluate(p, lam):
    """A(lam) by Horner's scheme on the matrix coefficients; lam of shape
    (K, 1, 1) gives the stack of the K matrices A(lam_k)."""
    out = np.array(p.coefficients[0], dtype=complex)
    for c in p.coefficients[1:]:
        out = out * lam + c
    return out


def evaluate_batch(p, lams, us):
    """Rows A(lam_k) u_k for nodes lams and stacked vectors us (N x n).

    Horner's scheme on the products us A_j^T: no (N, n, n) stack of
    matrices is formed.
    """
    lams = np.asarray(lams, dtype=complex)[:, None]
    out = us @ p.coefficients[0].T
    for c in p.coefficients[1:]:
        out = out * lams + us @ c.T
    return out


def resolvent_apply(p, lam, f):
    """Solve A(lam) u = f densely, certifying the residual against
    RESOLVENT_TOL |f|."""
    f = np.asarray(f, dtype=complex)
    a = evaluate(p, lam)
    try:
        u = np.linalg.solve(a, f)
    except np.linalg.LinAlgError:
        raise NearEigenvalueError(lam)
    with np.errstate(invalid="ignore", over="ignore"):
        scale = float(np.linalg.norm(f))
        residual = float(np.linalg.norm(a @ u - f))
    if not np.all(np.isfinite(u)) or residual > RESOLVENT_TOL * max(scale, 1e-300):
        raise NearEigenvalueError(lam, residual / max(scale, 1e-300))
    return u


def resolvent_apply_batch(p, lams, rhs):
    """A(lam_k)^{-1} rhs_k for every node k, certified nodewise.

    ``rhs`` has shape (len(lams), n).  With the pencil's triple (w, X, Y,
    power) the solves are U = ((F Y^T) / (lam_k^power - w_i)) X^T; the
    modal triple of a binomial pencil has n terms whose far-node rounding
    does not cancel.  Each node must pass
    |A(lam_k) u_k - f_k| <= RESOLVENT_TOL |f_k| (rows with |f_k| <= 1e-280
    only need a finite residual).  Failing nodes, or all nodes when the
    pencil has no triple, go to the LU fallback (_lu_fallback).
    """
    lams = np.asarray(lams, dtype=complex)
    rhs = np.asarray(rhs, dtype=complex)
    triple = p.triple
    if triple is None:
        sols = np.zeros_like(rhs)
        redo = np.arange(lams.size)
    else:
        w, X, Y, power = triple
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            shifted = (lams if power == 1 else lams ** power)[:, None] - w
            sols = ((rhs @ Y.T) / shifted) @ X.T
            res = np.linalg.norm(evaluate_batch(p, lams, sols) - rhs, axis=1)
            scale = np.linalg.norm(rhs, axis=1)
        fails = (res > RESOLVENT_TOL * scale) & (scale > 1e-280)
        redo = np.nonzero(~np.isfinite(res) | fails)[0]
    if redo.size:
        _lu_fallback(p, lams, rhs, redo, sols)
    return sols


# the LU fallback stacks at most this many matrix entries (32 MiB) at once
_LU_STACK_ENTRIES = 1 << 21


def _lu_fallback(p, lams, rhs, nodes, sols):
    """Fill sols[nodes] by stacked LU, certified as in resolvent_apply.

    Nodes go in increasing order, in chunks of stacked A(lam_k).  A node
    whose stacked solve fails the certificate, or every node of a chunk
    whose stack is exactly singular, is solved alone by resolvent_apply;
    the first one that fails there raises NearEigenvalueError with its node
    index, its lam and ``partial``, the solutions of all earlier nodes.
    """
    chunk = max(1, _LU_STACK_ENTRIES // p.dim ** 2)
    for start in range(0, nodes.size, chunk):
        ks = nodes[start:start + chunk]
        mats = evaluate(p, lams[ks, None, None])
        try:
            out = np.linalg.solve(mats, rhs[ks, :, None])[:, :, 0]
        except np.linalg.LinAlgError:
            alone = ks
        else:
            with np.errstate(invalid="ignore", over="ignore"):
                res = np.linalg.norm(
                    np.einsum("kij,kj->ki", mats, out) - rhs[ks], axis=1)
                scale = np.linalg.norm(rhs[ks], axis=1)
            ok = (np.all(np.isfinite(out), axis=1)
                  & (res <= RESOLVENT_TOL * np.maximum(scale, 1e-300)))
            sols[ks[ok]] = out[ok]
            alone = ks[~ok]
        for k in alone:
            try:
                sols[k] = resolvent_apply(p, lams[k], rhs[k])
            except NearEigenvalueError as exc:
                raise NearEigenvalueError(exc.lam, exc.residual, node=int(k),
                                          partial=sols[:k]) from None


@dataclass(frozen=True)
class SpectrumReport:
    """Clustered finite eigenvalues and their multiplicities, in report order."""

    eigenvalues: tuple
    multiplicities: tuple


def _cluster(values, tol):
    """Single-linkage clusters: the connected components of |a - b| <= tol.

    Values are swept in lexsort order (real part first); each is linked to
    the earlier values within tol of it, found among those within tol in
    real part, so no N x N matrix is formed.  Clusters come in the order of
    their first member, and keep their members in lexsort order.
    """
    if not values.size:
        return []
    vals = values[np.lexsort((values.imag, values.real))]
    # labels[k]: the first position of k's cluster among those swept so far
    labels = np.arange(vals.size)
    starts = np.searchsorted(vals.real, vals.real - tol)
    for k in range(1, vals.size):
        window = slice(starts[k], k)
        linked = labels[window][np.abs(vals[window] - vals[k]) <= tol]
        if linked.size:
            first = linked.min()
            labels[:k][np.isin(labels[:k], linked)] = first
            labels[k] = first
    order = np.argsort(labels, kind="stable")
    return np.split(vals[order], np.flatnonzero(np.diff(labels[order])) + 1)


def _report_order(lams):
    """Indices of lams by real part up to TOL_CLUSTER, then imaginary part.

    Sorted real parts start a new group wherever consecutive ones differ by
    more than TOL_CLUSTER, so rounding noise in the real parts of values on
    one vertical line does not decide their order.
    """
    by_real = np.argsort(lams.real, kind="stable")
    groups = np.cumsum(np.diff(lams.real[by_real], prepend=-np.inf)
                       > TOL_CLUSTER)
    return by_real[np.lexsort((lams.imag[by_real], groups))]


def _clusters_in(p, region):
    """(head notes, means, sizes) of the pencil's clusters in the region."""
    head, lams, sizes = p.clusters
    inside = [k for k, lam in enumerate(lams)
              if region is None or region.contains_closed(lam)]
    return head, [lams[k] for k in inside], [sizes[k] for k in inside]


def spectrum(p, region=None):
    """Finite spectrum of the pencil, clustered, in report order.

    Infinite eigenvalues are dropped: only the QZ route meets them, where
    A_0 is singular, as the pairs (alpha, beta) with |beta| <= TOL_INF
    |B|_F (_companion_eig).  Multiplicity is the size of a single-linkage
    cluster under absolute distance TOL_CLUSTER; Jordan structure is not
    resolved (``certify_spectrum`` flags clusters of size > 1).  Report
    order sorts by real part up to TOL_CLUSTER, then by imaginary part.
    The clusters are cached on the pencil, and only the ``region`` filter
    runs per call; no SVD runs.
    """
    _, lams, sizes = _clusters_in(p, region)
    return SpectrumReport(tuple(lams), tuple(sizes))


def certify_spectrum(p, region=None):
    """(residuals, notes) certifying the clusters of spectrum(p, region).

    One SVD per cluster: residuals[k] is sigma_min(A(lam_k)) for the k-th
    eigenvalue of the report.  A residual above 1e-8 sum_j |lam|^(m-j)
    |A_j|_F, an eigenvalue backward error above 1e-8 (Tisseur, LAA 309,
    2000), fails its certificate.  The notes, in report order after the one
    on dropped infinite eigenvalues, name each failed certificate and each
    cluster of size > 1 (possibly defective).
    """
    head, lams, sizes = _clusters_in(p, region)
    norms = [float(np.linalg.norm(c)) for c in p.coefficients]
    residuals, notes = [], list(head)
    for lam, size in zip(lams, sizes):
        sigma = float(np.linalg.svd(evaluate(p, lam), compute_uv=False)[-1])
        residuals.append(sigma)
        bound = 1e-8 * float(np.polyval(norms, abs(lam)))
        if sigma > bound:
            notes.append(
                f"eigenvalue {lam} fails its residual certificate: smallest "
                f"singular value {sigma:.3e} vs backward-error bound "
                f"{bound:.3e}"
            )
        if size > 1:
            notes.append(
                f"cluster at {lam}: multiplicity {size} by distance; "
                f"Jordan chains unresolved, may be defective"
            )
    return tuple(residuals), tuple(notes)


def search_radius(p, vertex):
    """2 max |lam - vertex| + 1 over the finite spectrum (3 if it is empty).

    A clearance radius that covers every eigenvalue with room to spare.
    """
    top = max((abs(lam - vertex) for lam in spectrum(p).eigenvalues),
              default=1.0)
    return 2.0 * top + 1.0


@dataclass(frozen=True)
class ClearanceReport:
    clear: bool
    violations: tuple

    @property
    def verdict(self):
        return "clear" if self.clear else "violated"


def cone_clearance(p, cone, search_radius):
    """Is the closed cone free of pencil eigenvalues?

    Membership is tested against the closed cone (boundary rays and vertex
    included) widened by the angular margin TOL_MARGIN, so grazing
    eigenvalues count as violations.  Only eigenvalues within
    ``search_radius`` of the vertex are examined; the caller is responsible
    for a radius that covers every eigenvalue that could matter (>= 2x the
    largest magnitude is a safe habit).
    """
    spec = spectrum(p, region=Disk(cone.vertex, search_radius))
    violations = tuple(lam for lam in spec.eigenvalues
                       if cone.contains_closed(lam, margin=TOL_MARGIN))
    return ClearanceReport(not violations, violations)


@dataclass(frozen=True)
class GrowthReport:
    max_ratio: float
    band_maxima: tuple
    samples: tuple
    skipped: tuple
    verdict: str


def verify_growth_condition(p, cone_pair, R, sample_count=8, angle_count=5):
    """Empirically bound sum_j |lam|^j |A^{-1}(lam) f|_{m-j} / |f|_0.

    Samples lam over the two closed cones in three dyadic radius bands
    [R, 2R], [2R, 4R], [4R, 8R] and f over an H_0-orthonormal basis.  The
    verdict is "plausible" when the per-band maxima have stabilized
    (non-increasing up to 5%), "growing" otherwise.  This is an
    empirical probe, never a proof.
    """
    m = p.degree
    h0 = p.norm_forms[0]
    basis = np.linalg.inv(np.linalg.cholesky(h0)).conj().T  # H_0-orthonormal columns
    rhs = np.ascontiguousarray(basis.T)  # one basis vector per row
    band_edges = [(R, 2 * R), (2 * R, 4 * R), (4 * R, 8 * R)]
    band_maxima = []
    samples = []
    skipped = []
    spec = spectrum(p)
    for lo, hi in band_edges:
        radii = np.geomspace(lo, hi, sample_count)
        worst = 0.0
        for cone in cone_pair:
            locals_ = np.linspace(0.0, cone.angle, angle_count)
            for r in radii:
                for psi in locals_:
                    for nappe in (0.0, math.pi):
                        lam = cone.vertex + r * cmath.exp(
                            1j * (cone.orientation * psi + nappe))
                        if any(abs(lam - ev) < 10 * TOL_CLUSTER
                               for ev in spec.eigenvalues):
                            skipped.append(lam)
                            continue
                        lams = np.full(len(rhs), lam)
                        try:
                            sols = resolvent_apply_batch(p, lams, rhs)
                        except NearEigenvalueError as exc:
                            # the columns before the failing one still count
                            sols = exc.partial
                            skipped.append(lam)
                        for u, f in zip(sols, rhs):
                            num = sum(abs(lam) ** j * p.vector_norm(u, m - j)
                                      for j in range(m + 1))
                            ratio = num / max(p.vector_norm(f, 0), 1e-300)
                            worst = max(worst, ratio)
                            samples.append((lam, ratio))
        band_maxima.append(worst)
    stable = all(band_maxima[i + 1] <= band_maxima[i] * 1.05
                 for i in range(len(band_maxima) - 1))
    return GrowthReport(
        max_ratio=max(band_maxima),
        band_maxima=tuple(band_maxima),
        samples=tuple(samples),
        skipped=tuple(skipped),
        verdict="plausible" if stable else "growing",
    )
