"""Seeded workload generators and report checks for the benchmark.

Each workload turns a seed into CLI arguments (plus any problem file it
writes) and checks the report the CLI produced.  Seed 0 reproduces the
reference commands exactly; other seeds vary the inputs without changing
the amount of work.  The checks use the acceptance suite's thresholds and
compute their references independently of conescale.
"""

import json
import math
import os

import numpy as np


def _meta(text):
    """The '# key=value' lines of a report, as a dict of strings."""
    out = {}
    for line in text.splitlines():
        if line.startswith("# table="):
            continue
        if line.startswith("# ") and "=" in line:
            key, value = line[2:].split("=", 1)
            out.setdefault(key, value)
    return out


def _table(text, name):
    """Rows of the named table (header excluded), split on commas."""
    lines = text.splitlines()
    marker = f"# table={name}"
    if marker not in lines:
        raise CheckError(f"report has no table {name!r}")
    rows = []
    for line in lines[lines.index(marker) + 2:]:
        if line.startswith("#"):
            break
        rows.append(line.split(","))
    return rows


class CheckError(Exception):
    """A report failed one of the benchmark's output checks."""


def _require(ok, message):
    if not ok:
        raise CheckError(message)


def _float(meta, key):
    _require(key in meta, f"report has no {key!r}")
    return float(meta[key])


def dirichlet_laplacian(n):
    """Second differences with Dirichlet ends on (0, 1), n interior points."""
    h = 1.0 / (n + 1)
    main = np.full(n, 2.0 / h ** 2)
    off = np.full(n - 1, -1.0 / h ** 2)
    return np.diag(main) + np.diag(off, 1) + np.diag(off, -1)


def _pairs(matrix):
    return [[[float(z.real), float(z.imag)] for z in row] for row in matrix]


class Cylinder64:
    """demo-cylinder --n 64: every layer does real work."""

    name = "cylinder64"
    n = 64
    # spans a traced run must reach, and counts seen at the seed commit
    layers = ("transform.forward", "transform.inverse",
              "transform.evaluate_continuation", "pencil.spectrum",
              "pencil.cone_clearance", "pencil.resolvent_apply_batch",
              "pencil.evaluate_batch", "stencils.derivative",
              "solver.apply_pencil_fd", "solver.solve_const",
              "solver.solve_scaled", "cli.load_problem", "cli.report_table",
              "cli.command")
    seed_counts = {"pencil.spectrum": 11, "solver.solve_const": 6,
                   "transform.forward": 6, "transform.inverse": 6,
                   "transform.evaluate_continuation": 1,
                   "pencil.resolvent.nodes": 24576}

    def __init__(self, seed, workdir):
        rng = np.random.default_rng(seed)
        self.phi = math.pi / 16 if seed == 0 else \
            float(rng.uniform(math.pi / 20, math.pi / 12))
        self.problem = os.path.join(workdir, "cylinder64_problem.json")

    def argv(self, report):
        return ["demo-cylinder", "--n", str(self.n), "--phi", repr(self.phi),
                "--out-problem", self.problem, "--out", report]

    def check(self, text):
        meta = _meta(text)
        _require(meta.get("command") == "demo-cylinder", "wrong command")
        _require(meta.get("clearance") == "clear", "clearance is not clear")
        _require(_float(meta, "phi") == self.phi, "phi echo differs")
        worst = _float(meta, "eigenvalue_max_rel_err")
        _require(worst <= 1e-8, f"eigenvalue_max_rel_err {worst:.3g} > 1e-8")
        for key in ("residual", "residual_scaled"):
            value = _float(meta, key)
            _require(value <= 1e-6, f"{key} {value:.3g} > 1e-6")
        deviation = _float(meta, "deviation")
        _require(deviation <= 1e-5, f"deviation {deviation:.3g} > 1e-5")
        _require(len(_table(text, "eigenvalues")) == 2 * self.n,
                 "eigenvalue table has the wrong length")
        _require(len(_table(text, "solution")) == 4096,
                 "solution table has the wrong length")


class NeumannCert:
    """verify --suite continuation on a perturbed scalar first-order pencil."""

    name = "neumann-cert"
    rows = 9
    layers = ("transform.forward", "transform.inverse", "pencil.spectrum",
              "pencil.resolvent_apply_batch", "pencil.evaluate_batch",
              "stencils.derivative", "solver.apply_pencil_fd",
              "hardy.halfline_projection", "solver.solve_variable",
              "solver.continuation_certificate", "cli.load_problem",
              "cli.report_table", "cli.command")
    seed_counts = {"solver.solve_variable": 9, "hardy.halfline_projection": 27,
                   "transform.forward": 81, "transform.inverse": 81,
                   "pencil.resolvent_apply_batch": 27}

    def __init__(self, seed, workdir):
        rng = np.random.default_rng(seed)
        if seed == 0:
            self.center, self.epsilon = 5.0, 0.05
        else:
            self.center = float(rng.uniform(4.0, 5.5))
            self.epsilon = float(rng.uniform(0.03, 0.07))
        self.problem = os.path.join(workdir, "neumann_problem.json")
        data = {
            "schema_version": 1,
            "pencil": {"degree": 1, "dim": 1,
                       "coefficients": [[[[1.0, 0.0]]], [[[0.0, 1.0]]]]},
            "geometry": {"cone": {"angle": math.pi / 6, "vertex": [0.0, 2.0],
                                  "orientation": 1},
                         "weight": [0.0, 0.0]},
            "grid": {"half_width": 20.0, "count": 4096},
            "rhs": {"kind": "shifted_gaussian", "center": [self.center, 0.0]},
            "perturbation": {"kind": "rational_decay",
                             "epsilon": self.epsilon, "pole_scale": 3.0},
            "solver": {"phi_list": [math.pi / 16], "res_tol": 1e-8},
        }
        with open(self.problem, "w", encoding="utf-8") as fh:
            json.dump(data, fh)

    def argv(self, report):
        return ["verify", "--suite", "continuation", self.problem,
                "--out", report]

    def check(self, text):
        meta = _meta(text)
        _require(meta.get("suite") == "continuation", "wrong suite")
        _require(meta.get("verdict") == "holds",
                 f"verdict is {meta.get('verdict')!r}, not 'holds'")
        rows = _table(text, "continuation")
        _require(len(rows) == self.rows,
                 f"{len(rows)} energy rows, expected {self.rows}")
        energies = [float(row[1]) for row in rows]
        _require(all(math.isfinite(e) for e in energies),
                 "an energy row is not finite")


class ClearanceWide:
    """clearance on lam^2 I + (L_h + S), n=128, S seeded Hermitian."""

    name = "clearance-wide"
    n = 128
    layers = ("pencil.spectrum", "pencil.cone_clearance", "cli.load_problem",
              "cli.report_table", "cli.command")
    seed_counts = {"pencil.spectrum": 2, "transform.forward": 0,
                   "transform.inverse": 0,
                   "transform.evaluate_continuation": 0}

    def __init__(self, seed, workdir):
        rng = np.random.default_rng(seed)
        n = self.n
        lap = dirichlet_laplacian(n)
        g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        s = 0.5 * (g + g.conj().T)
        h = 1.0 / (n + 1)
        lam_min = 4.0 / h ** 2 * math.sin(math.pi * h / 2) ** 2
        # Weyl: |S|_2 = lam_min / 2 keeps L_h + S positive definite, so the
        # eigenvalues +-i sqrt(mu) stay on the imaginary axis
        s *= 0.5 * lam_min / np.linalg.norm(s, 2)
        stiffness = lap + s
        mu = np.linalg.eigvalsh(stiffness)
        self.expected_radius = 2.0 * math.sqrt(float(mu.max())) + 1.0
        self.problem = os.path.join(workdir, "clearance_problem.json")
        eye = np.eye(n)
        data = {
            "schema_version": 1,
            "pencil": {"degree": 2, "dim": n,
                       "coefficients": [_pairs(eye), _pairs(0 * eye),
                                        _pairs(stiffness)]},
            "geometry": {"cone": {"angle": math.pi / 16, "vertex": [0.0, 0.0],
                                  "orientation": 1},
                         "weight": [0.0, 0.0]},
            "grid": {"half_width": 20.0, "count": 4096},
            "rhs": {"kind": "gaussian",
                    "cross_section": [[1.0 / math.sqrt(n), 0.0]] * n},
        }
        with open(self.problem, "w", encoding="utf-8") as fh:
            json.dump(data, fh)

    def argv(self, report):
        return ["clearance", self.problem, "--out", report]

    def check(self, text):
        meta = _meta(text)
        _require(meta.get("command") == "clearance", "wrong command")
        _require(meta.get("verdict") == "clear",
                 f"verdict is {meta.get('verdict')!r}, not 'clear'")
        _require(_table(text, "violations") == [], "violations listed")
        radius = _float(meta, "search_radius")
        rel = abs(radius - self.expected_radius) / self.expected_radius
        _require(rel <= 1e-8, f"search_radius off by {rel:.3g} relative")


WORKLOADS = {w.name: w for w in (Cylinder64, NeumannCert, ClearanceWide)}
