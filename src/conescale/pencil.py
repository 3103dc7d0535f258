"""Polynomial matrix pencils over nested finite-dimensional spaces.

A pencil is A(lam) = sum_j A_j lam^(m-j) with complex n x n coefficients
A_0..A_m and positive-definite Hermitian forms H_0..H_m that define the
nested norms |u|_j = <H_j u, u>^(1/2), |u|_j <= |u|_(j+1).  The module
provides evaluation, resolvent solves with residual certification, the full
finite spectrum by block companion linearization, cone-clearance tests, and
an empirical probe of the resolvent growth bound

    sum_j |lam|^j |A(lam)^{-1} f|_(m-j) <= c |f|_0

over sampled lam in a closed cone pair.

Each pencil caches its factorization (``factorization``), each part
computed on first need.  The eigenvalues J of its block companion pencil
lam B - A serve every spectrum report: they are grouped once per
tol_cluster into single-linkage clusters (the connected components of
|a - b| <= tol_cluster), and each cluster is certified on first read of a
report's ``residuals``/``notes``, so eigenvalue-only consumers (clearance,
search radii, the solvers' line checks) run no SVD.  The eigendecomposition
A V = B V J, computed only when a batched resolvent first needs it, gives
the standard triple X = V[:n], Y = (B V)^{-1}[:, (m-1)n:] and

    A(lam)^{-1} = X (lam - J)^{-1} Y,

applied to N nodes at once with two matrix products.  Each node's residual
|A(lam_k) u_k - f_k| is still certified against RESOLVENT_TOL; nodes that
fail it, and every node of a pencil without a usable triple (singular A_0,
or a singular (B V)), are solved by stacked LU instead, and a node that
fails there too by its own certified LU solve.
"""

import cmath
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.linalg

from .errors import EigenSolverError, NearEigenvalueError
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
    """Coefficients A_0..A_m (A_j multiplies lam^(m-j)) plus norm forms."""

    coefficients: tuple
    norm_forms: tuple = None

    def __post_init__(self):
        coeffs = tuple(np.asarray(c, dtype=complex) for c in self.coefficients)
        if len(coeffs) < 2:
            raise ValueError("a pencil needs degree >= 1 (at least two coefficients)")
        n = coeffs[0].shape[0]
        for c in coeffs:
            if c.shape != (n, n):
                raise ValueError("all coefficients must be square with a common size")
            c.flags.writeable = False
        object.__setattr__(self, "coefficients", coeffs)
        if self.norm_forms is None:
            forms = tuple(np.eye(n) for _ in coeffs)
        else:
            forms = tuple(np.asarray(h, dtype=complex) for h in self.norm_forms)
            if len(forms) != len(coeffs):
                raise ValueError("need one norm form per coefficient")
            for j, h in enumerate(forms):
                if h.shape != (n, n):
                    raise ValueError("norm forms must match the pencil dimension")
                if np.max(np.abs(h - h.conj().T)) > 1e-12 * max(1.0, np.max(np.abs(h))):
                    raise ValueError(f"norm form {j} is not Hermitian")
                try:
                    np.linalg.cholesky(h)
                except np.linalg.LinAlgError:
                    raise ValueError(f"norm form {j} is not positive definite")
                h.flags.writeable = False
            # nested-norm axiom |u|_j <= |u|_{j+1}: H_{j+1} - H_j must be PSD
            for j in range(len(forms) - 1):
                gap = np.linalg.eigvalsh(forms[j + 1] - forms[j])
                if gap[0] < -1e-10 * max(1.0, float(np.max(np.abs(forms[j + 1])))):
                    raise ValueError(
                        f"norm forms are not nested: H_{j + 1} - H_{j} has a "
                        f"negative eigenvalue {gap[0]:.3g}"
                    )
        object.__setattr__(self, "norm_forms", forms)
        # the sign of slogdet is 0 only for an exactly singular matrix;
        # det itself under- or overflows at moderate sizes and scales
        if not any(np.linalg.slogdet(evaluate(self, lam))[0] != 0
                   for lam in _PROBES):
            raise ValueError("pencil is singular at every probe point")

    @property
    def degree(self):
        return len(self.coefficients) - 1

    @property
    def dim(self):
        return self.coefficients[0].shape[0]

    def coefficient_scale(self):
        return max(float(np.linalg.norm(c)) for c in self.coefficients)

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
    def factorization(self):
        """The companion eigendecomposition, computed on first use."""
        return PencilFactorization(self)


class PencilFactorization:
    """Eigendecomposition of the block companion pencil of one MatrixPencil.

    Each part is computed on first use.  ``eigenvalues`` holds all m n
    companion eigenvalues (inf where A_0 is singular); it comes from an
    eigenvalue-only solve unless the triple was built first.  ``triple`` is
    (w, X, Y) with A(lam)^{-1} = X diag(1 / (lam - w)) Y, or None when the
    pencil has none; only it pays for eigenvectors and (B V)^{-1}.
    ``spectra`` caches, per tol_cluster, the clusters and the certificates
    read so far.
    """

    def __init__(self, p):
        self._coefficients = p.coefficients
        self.spectra = {}

    @cached_property
    def eigenvalues(self):
        vals = _companion_eig(*_companion(self._coefficients), vectors=False)
        vals.flags.writeable = False
        return vals

    @cached_property
    def triple(self):
        known = vars(self).get("eigenvalues")
        if known is not None and not np.all(np.isfinite(known)):
            return None  # singular A_0: no triple, so skip the eigenvectors
        a, b = _companion(self._coefficients)
        vals, vecs = _companion_eig(a, b, vectors=True)
        vals.flags.writeable = False
        # a later spectrum reuses these instead of a second solve
        vars(self).setdefault("eigenvalues", vals)
        try:
            X, Y = _standard_triple(vals, vecs, b,
                                    self._coefficients[0].shape[0])
        except np.linalg.LinAlgError:
            return None
        # shared by every later solve on this pencil
        X.flags.writeable = False
        Y.flags.writeable = False
        return vals, X, Y


def _companion(coefficients):
    """The block companion pencil lam * B - A of A_0..A_m, as (A, B)."""
    m, n = len(coefficients) - 1, coefficients[0].shape[0]
    # A holds the companion blocks and B carries the leading coefficient,
    # so a singular A_0 shows up as infinite lams
    A = np.zeros((m * n, m * n), dtype=complex)
    B = np.eye(m * n, dtype=complex)
    for k in range(m - 1):
        A[k * n:(k + 1) * n, (k + 1) * n:(k + 2) * n] = np.eye(n)
    for k in range(m):
        # row of powers: -A_m, -A_{m-1}, ..., -A_1
        A[(m - 1) * n:, k * n:(k + 1) * n] = -coefficients[m - k]
    B[(m - 1) * n:, (m - 1) * n:] = coefficients[0]
    return A, B


def _companion_eig(A, B, vectors):
    """scipy.linalg.eig(A, B), or eigvals without vectors.

    LAPACK failures are raised as EigenSolverError.
    """
    try:
        if vectors:
            return scipy.linalg.eig(A, B)
        return scipy.linalg.eigvals(A, B)
    except Exception as exc:  # pragma: no cover - LAPACK failure is exotic
        raise EigenSolverError(f"companion eigenvalue solve failed: {exc}")


def _standard_triple(vals, vecs, B, n):
    """X = V[:n] and Y = (B V)^{-1}[:, (m-1)n:] from A V = B V diag(vals).

    Then lam B - A = B V (lam - J) V^{-1}, and the first block row of its
    inverse applied to the last block column is A(lam)^{-1}.  Raises
    LinAlgError when the triple does not exist numerically.
    """
    if not np.all(np.isfinite(vals)):
        raise np.linalg.LinAlgError("infinite eigenvalues: A_0 is singular")
    Y = np.linalg.inv(B @ vecs)[:, -n:]
    if not np.all(np.isfinite(Y)):
        raise np.linalg.LinAlgError("(B V)^{-1} is not finite")
    return vecs[:n], Y


def evaluate(p, lam):
    """A(lam) by Horner's scheme on the matrix coefficients."""
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

    ``rhs`` has shape (len(lams), n).  With a standard triple the solves
    are U = ((F Y^T) / (lam_k - w_i)) X^T, and each node must pass
    |A(lam_k) u_k - f_k| <= RESOLVENT_TOL |f_k| (rows with |f_k| <= 1e-280
    only need a finite residual).  Failing nodes, or all nodes when the
    pencil has no triple, go to the LU fallback (_lu_fallback).
    """
    lams = np.asarray(lams, dtype=complex)
    rhs = np.asarray(rhs, dtype=complex)
    triple = p.factorization.triple
    if triple is None:
        sols = np.zeros_like(rhs)
        redo = np.arange(lams.size)
    else:
        w, X, Y = triple
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            sols = ((rhs @ Y.T) / (lams[:, None] - w)) @ X.T
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
        mats = np.broadcast_to(p.coefficients[0],
                               (ks.size, p.dim, p.dim)).copy()
        for c in p.coefficients[1:]:
            mats = mats * lams[ks, None, None] + c
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


class SpectrumReport:
    """Clustered finite eigenvalues with residual certificates.

    ``eigenvalues`` and ``multiplicities`` are set on construction.
    ``residuals`` and ``notes`` are either given too, or (in the reports
    ``spectrum`` returns) computed together by a ``certify`` callable the
    first time either is read, so a reader of the eigenvalues alone runs no
    SVD.  Equality compares all four fields.
    """

    def __init__(self, eigenvalues, multiplicities, residuals, notes=()):
        self.eigenvalues = eigenvalues
        self.multiplicities = multiplicities
        self._certify = lambda: (residuals, notes)

    @classmethod
    def _deferred(cls, eigenvalues, multiplicities, certify):
        report = cls(eigenvalues, multiplicities, None)
        report._certify = certify
        return report

    @cached_property
    def _certificate(self):
        return self._certify()

    @property
    def residuals(self):
        return self._certificate[0]

    @property
    def notes(self):
        return self._certificate[1]

    def _fields(self):
        return self.eigenvalues, self.multiplicities, self.residuals, self.notes

    def __eq__(self, other):
        if not isinstance(other, SpectrumReport):
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self):
        return hash(self._fields())

    def __repr__(self):
        return "SpectrumReport(eigenvalues={!r}, multiplicities={!r}, " \
            "residuals={!r}, notes={!r})".format(*self._fields())

    def __iter__(self):
        return iter(zip(self.eigenvalues, self.multiplicities, self.residuals))


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


def _clusters(p, tol_cluster):
    """Leading notes, cluster means, cluster sizes and certificates.

    Computed once per pencil and tol_cluster from the cached factorization;
    clusters keep their chaining order.  The certificates start empty: a
    dict from cluster index to the (residual, notes) of _certificate, which
    spectrum reports fill in as they are read.
    """
    cache = p.factorization.spectra
    if tol_cluster not in cache:
        raw = p.factorization.eigenvalues
        finite = raw[np.isfinite(raw)]
        kept = finite[np.abs(finite) <= 1.0 / TOL_INF]
        head = ()
        dropped = raw.size - kept.size
        if dropped:
            head = (f"dropped {dropped} eigenvalue(s) at or near infinity",)
        clusters = _cluster(kept, tol_cluster)
        cache[tol_cluster] = (head,
                              tuple(complex(np.mean(c)) for c in clusters),
                              tuple(len(c) for c in clusters), {})
    return cache[tol_cluster]


def _certificate(p, lam, size, scale):
    """(sigma_min(A(lam)), notes) for a cluster of ``size`` values at lam."""
    sing = np.linalg.svd(evaluate(p, lam), compute_uv=False)
    notes = []
    if sing[-1] > 1e-8 * scale:
        notes.append(
            f"eigenvalue {lam} fails its residual certificate: smallest "
            f"singular value {sing[-1]:.3e} vs scale {scale:.3e}"
        )
    if size > 1:
        notes.append(
            f"cluster at {lam}: multiplicity {size} by distance; "
            f"Jordan chains unresolved, may be defective"
        )
    return float(sing[-1]), tuple(notes)


def spectrum(p, region=None, tol_cluster=TOL_CLUSTER):
    """Finite spectrum of the pencil, clustered and residual-certified.

    Eigenvalues beyond 1/TOL_INF in magnitude are treated as infinite and
    dropped with a note (they appear when A_0 is singular).  Multiplicity is
    the size of a single-linkage cluster under absolute distance
    tol_cluster; Jordan structure is not resolved, clusters of size > 1 are
    flagged instead.  The clusters are cached on the pencil, and only the
    ``region`` filter runs per call.  The report's ``residuals`` and
    ``notes`` are certified on their first read, by one SVD for each
    cluster in the region that no earlier read on this pencil certified.
    """
    head, lams, sizes, certified = _clusters(p, tol_cluster)
    inside = [k for k, lam in enumerate(lams)
              if region is None or region.contains_closed(lam)]
    order = sorted(inside, key=lambda k: (lams[k].real, lams[k].imag))

    def certify():
        missing = [k for k in inside if k not in certified]
        if missing:
            scale = p.coefficient_scale()
            for k in missing:
                certified[k] = _certificate(p, lams[k], sizes[k], scale)
        # residuals in report order, notes in chaining order
        return (tuple(certified[k][0] for k in order),
                head + tuple(note for k in inside for note in certified[k][1]))

    return SpectrumReport._deferred(tuple(lams[k] for k in order),
                                    tuple(sizes[k] for k in order), certify)


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
    spectrum: SpectrumReport

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
    return ClearanceReport(not violations, violations, spec)


def line_distance(ray, lam):
    """Distance from a point to the full line carrying a ray."""
    u = (complex(lam) - ray.offset) / ray.direction
    return abs(u.imag)


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
