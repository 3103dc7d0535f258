"""Finite-difference stencils on uniform grids.

Weights come from Fornberg's recursion, so arbitrary derivative orders,
accuracy orders, and one-sided windows all share one code path.  These
stencils back every residual re-check in the package: solves happen on the
frequency side, the checks re-apply differential operators here, on the
samples, so the two routes stay independent.
"""

import functools

import numpy as np

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


def centered_weights(m, acc):
    """Centered stencil (offsets, weights) for d^m/dx^m, m >= 1, at
    accuracy `acc`."""
    half = (m + 1) // 2 + acc // 2 - 1
    half = max(half, (m + acc) // 2)
    return np.arange(-half, half + 1), _window_weights(-half, 2 * half + 1, m)


def derivative_uniform(values, spacing, m, acc=8):
    """m-th derivative of sampled columns; returns (derivs, valid_slice).

    `values` has shape (N,) or (N, n); derivatives are centered stencils of
    accuracy `acc`, valid only on the interior slice where the full stencil
    fits (edges are filled with the nearest valid value but flagged invalid).
    """
    values = np.asarray(values)
    if m == 0:
        return values.copy(), slice(0, values.shape[0])
    offsets, w = centered_weights(m, acc)
    half = int(offsets[-1])
    n = values.shape[0]
    if n < 2 * half + 1:
        raise ConfigurationError(f"grid too short for stencil: {n} nodes < {2 * half + 1}")
    out = np.zeros_like(values, dtype=complex)
    core = slice(half, n - half)
    for off, c in zip(offsets, w):
        out[core] += c * values[half + off: n - half + off]
    out /= spacing ** m
    out[:half] = out[half]
    out[n - half:] = out[n - half - 1]
    return out, core


@functools.lru_cache(maxsize=256)
def _window_weights(first, width, m):
    """Read-only weights of d^m/dx^m at 0 on the unit-spaced nodes
    first, first + 1, ..., first + width - 1, computed once per
    (first, width, m)."""
    w = fornberg_weights(0.0, np.arange(first, first + width, dtype=float), m)
    w.flags.writeable = False
    return w


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


def derivative_with_cuts(values, spacing, m, acc=6, cuts=()):
    """Like derivative_uniform but one-sided near the given cut indices.

    Only rows near cuts/edges deviate from the centered stencil, so the cost
    stays O(N * stencil) rather than a dense matrix apply: those rows are
    one gather and one batched product (_edge_rows).
    """
    values = np.asarray(values)
    if m == 0:
        return values.copy(), slice(0, values.shape[0])
    out, core = derivative_uniform(values, spacing, m, acc=acc)
    rows, index, weights = _edge_rows(values.shape[0], m, acc,
                                      tuple(int(c) for c in cuts))
    # (rows, 1, width) @ (rows, width, columns); 1-D values are one column
    windows = values[index].reshape(index.shape + (-1,))
    out[rows] = (np.matmul(weights, windows)[:, 0] / spacing ** m).reshape(
        rows.shape + values.shape[1:])
    return out, core


@functools.lru_cache(maxsize=64)
def _edge_rows(n, m, acc, cuts):
    """(rows, index, weights) of derivative_with_cuts on n nodes.

    ``rows`` are the nodes within one stencil width of an edge or a cut,
    ``index`` (rows, width) their windows, which never straddle a cut, and
    ``weights`` (rows, 1, width) the window weights of d^m/dx^m at unit
    spacing.  Built once per (n, m, acc, cuts); the arrays are read-only.
    """
    width = m + acc
    if (m + width) % 2 == 1:
        width += 1
    bounds = sorted({0, n, *[c for c in cuts if 0 < c < n]})
    segments = list(zip(bounds[:-1], bounds[1:]))
    redo = set(range(0, min(width, n)))
    redo.update(range(max(n - width, 0), n))
    for c in cuts:
        redo.update(range(max(c - width, 0), min(c + width, n)))
    rows = np.array(sorted(redo))
    starts = np.array([_window(k, n, width, segments) for k in rows])
    weights = np.array([_window_weights(start - k, width, m)
                        for start, k in zip(starts, rows)])[:, None, :]
    index = starts[:, None] + np.arange(width)
    for array in (rows, index, weights):
        array.flags.writeable = False
    return rows, index, weights
