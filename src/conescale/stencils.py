"""Finite-difference stencils on uniform grids.

Weights come from Fornberg's recursion, so arbitrary derivative orders,
accuracy orders, and one-sided windows all share one code path, and one
call (derivative_with_cuts) returns every order a caller asks for.  These
stencils back every residual re-check and ray energy in the package: solves
happen on the frequency side, the checks re-apply differential operators
here, on the samples, so the two routes stay independent.
"""

import functools

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import ConfigurationError


def fornberg_weights(x0, xs, m):
    """Weights w so that sum(w * f(xs)) ~ f^(m)(x0).

    Classic recursion (Fornberg 1988).  `xs` are distinct node abscissae,
    `m` the derivative order; exact for polynomials of degree len(xs)-1.
    """
    xs = np.asarray(xs, dtype=float)
    n = xs.size
    if m >= n:
        raise ConfigurationError(f"need at least {m + 1} nodes for derivative order {m}")
    c = np.zeros((n, m + 1))
    c[0, 0] = 1.0
    c1 = 1.0
    c4 = xs[0] - x0
    for i in range(1, n):
        mn = min(i, m)
        c2 = 1.0
        c5 = c4
        c4 = xs[i] - x0
        for j in range(i):
            c3 = xs[i] - xs[j]
            c2 *= c3
            if j == i - 1:
                for k in range(mn, 0, -1):
                    c[i, k] = c1 * (k * c[i - 1, k - 1] - c5 * c[i - 1, k]) / c2
                c[i, 0] = -c1 * c5 * c[i - 1, 0] / c2
            for k in range(mn, 0, -1):
                c[j, k] = (c4 * c[j, k] - k * c[j, k - 1]) / c3
            c[j, 0] = c4 * c[j, 0] / c3
        c1 = c2
    return c[:, m]


@functools.lru_cache(maxsize=256)
def _window_weights(first, width, m):
    """Read-only weights of d^m/dx^m at 0 on the unit-spaced nodes
    first, first + 1, ..., first + width - 1, computed once per
    (first, width, m)."""
    w = fornberg_weights(0.0, np.arange(first, first + width, dtype=float), m)
    w.flags.writeable = False
    return w


@functools.lru_cache(maxsize=64)
def _centered_matrix(orders, acc, spacing):
    """Read-only (width, len(orders)) centered weights of d^m/dx^m at
    accuracy `acc` and `spacing`, zero-padded to the widest order; order 0
    is the identity.  Complex: a real operand is cast once per window."""
    halves = [(m + acc) // 2 if m else 0 for m in orders]
    half = max(halves)
    matrix = np.zeros((2 * half + 1, len(orders)), dtype=complex)
    for i, (m, h) in enumerate(zip(orders, halves)):
        matrix[half - h:half + h + 1, i] = (_window_weights(-h, 2 * h + 1, m)
                                            * spacing ** -m)
    matrix.flags.writeable = False
    return matrix


def _window(k, n_nodes, width, segments):
    """Stencil window of `width` nodes around node k within its segment."""
    lo, hi = 0, n_nodes
    for a, b in segments:
        if a <= k < b:
            lo, hi = a, b
            break
    start = min(max(k - width // 2, lo), hi - width)
    if start < lo:
        raise ConfigurationError("segment too short for the requested stencil width")
    return start


def derivative_with_cuts(values, spacing, orders, acc=8, cuts=()):
    """Derivatives of sampled columns for every order in `orders` at once.

    `values` has shape (N,) or (N, n); returns (derivs, core), derivs[..., i]
    the orders[i]-th derivative at accuracy `acc`.  Rows where the widest
    centered stencil fits in the row's segment are one sliding-window
    product with every order's centered weights.  Rows within its half
    width of an edge or one of the `cuts` (indices where the samples may
    lose smoothness) take one-sided windows of m + acc nodes that never
    straddle a cut (_edge_rows).  ``core`` is the slice where the widest
    centered stencil fits on the grid: stencil-valid for every order.
    """
    values = np.asarray(values)
    orders, spacing = tuple(orders), float(spacing)
    weights = _centered_matrix(orders, acc, spacing)
    width, half = weights.shape[0], weights.shape[0] // 2
    n = values.shape[0]
    if n < width:
        raise ConfigurationError(f"grid too short for stencil: {n} nodes < {width}")
    core = slice(half, n - half)
    out = np.empty(values.shape + (len(orders),), dtype=complex)
    columns = values.reshape(n, -1)  # 1-D values are one column
    windows, target = sliding_window_view(columns, width, axis=0), out[core]
    if columns.shape[1] <= 16:
        # one (rows * columns, width) matrix beats a product per window
        # below about 20 columns (N = 4096)
        windows = windows.reshape(-1, width)
        target = target.reshape(-1, len(orders))
    np.matmul(windows, weights, out=target)
    cuts = tuple(int(c) for c in cuts)
    for i, m in enumerate(orders):
        rows, index, w = _edge_rows(n, m, acc, cuts, half)
        # (rows, 1, width) @ (rows, width, columns)
        edge = np.matmul(w, columns[index])[:, 0] * spacing ** -m
        out[rows, ..., i] = edge.reshape(rows.shape + values.shape[1:])
    return out, core


def derivative_uniform(values, spacing, orders, acc=8):
    """derivative_with_cuts with no cuts: windows shift only at the edges."""
    return derivative_with_cuts(values, spacing, orders, acc)


@functools.lru_cache(maxsize=64)
def _edge_rows(n, m, acc, cuts, reach):
    """(rows, index, weights) of order m in derivative_with_cuts on n nodes.

    ``rows`` are the nodes within ``reach`` (the widest centered stencil's
    half width) of an edge or a cut, ``index`` (rows, width) their windows,
    which never straddle a cut, and ``weights`` (rows, 1, width) the window
    weights of d^m/dx^m at unit spacing.  Built once per
    (n, m, acc, cuts, reach); the arrays are read-only.
    """
    # m + acc nodes, one more for odd acc; order 0 is the one-node identity
    width = m + acc + acc % 2 if m else 1
    bounds = sorted({0, n, *[c for c in cuts if 0 < c < n]})
    segments = list(zip(bounds[:-1], bounds[1:]))
    redo = set(range(0, min(reach, n)))
    redo.update(range(max(n - reach, 0), n))
    for c in cuts:
        redo.update(range(max(c - reach, 0), min(c + reach, n)))
    rows = np.array(sorted(redo), dtype=np.intp)
    starts = np.array([_window(k, n, width, segments) for k in rows],
                      dtype=np.intp)
    weights = np.array([_window_weights(start - k, width, m)
                        for start, k in zip(starts, rows)]).reshape(
        rows.size, 1, width)
    index = starts[:, None] + np.arange(width)
    for array in (rows, index, weights):
        array.flags.writeable = False
    return rows, index, weights
