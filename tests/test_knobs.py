"""Every problem-file field and every CLI option has an effect.

KNOBS holds one row per field path and per CLI option.  Fields of the rhs
and the perturbation get one row per kind that accepts them, as
"rhs.center[gaussian]".  Each row names the command to run and a (base,
changed) pair of values; the two runs must differ in exit code or in the
report with its echo lines removed (they repeat some fields and options
whether or not these have an effect), every number rounded to 12
significant digits, so that a change of rounding alone is no effect.
test_every_knob_has_a_row fails when the parser accepts a field, or
build_parser() an option, that has no row.
"""

import argparse
import copy
import json
import math
import re

import numpy as np
import pytest

import conescale.cli
from conescale.cli import build_parser, main, parse_problem

COUNT = 256
PHI = str(math.pi / 16)


def base_problem():
    """A(lam) = lam + i (eigenvalue -i) with a Gaussian rhs on 256 nodes."""
    return {
        "schema_version": 1,
        "pencil": {"degree": 1, "dim": 1,
                   "coefficients": [[[[1.0, 0.0]]], [[[0.0, 1.0]]]]},
        "geometry": {"cone": {"angle": math.pi / 2, "vertex": [0.0, 0.0],
                              "orientation": 1},
                     "weight": [0.0, 0.0]},
        "grid": {"half_width": 20.0, "count": COUNT},
        "rhs": {"kind": "gaussian"},
        "solver": {"phi_list": [math.pi / 8]},
    }


def _samples(scale):
    t = np.linspace(-20.0, 20.0, COUNT)
    return [[scale * float(v), 0.0] for v in np.exp(-t ** 2)]


SHIFTED = {"kind": "shifted_gaussian", "center": [5.0, 0.0]}
NEUMANN = {"rhs": SHIFTED, "perturbation": {"kind": "rational_decay"}}
IDENTITY_FORMS = [[[[1.0, 0.0]]], [[[1.0, 0.0]]]]
# a double cone whose vertex, angle and orientation each decide whether
# it holds the eigenvalue -i: the first does not, the second does
def _cone(angle, vertex, orientation):
    return {"geometry": {"cone": {"angle": angle, "vertex": vertex,
                                  "orientation": orientation},
                         "weight": [0.0, 0.0]}}


CLEAR = _cone(math.pi / 4, [1.0, 0.0], -1)
VIOLATED = _cone(math.pi / 2, [0.0, 0.0], -1)
CONTINUATION = ["verify", "--suite", "continuation"]
# data without an analytic evaluator, checked on the real line only
PALEY_WIENER = ["verify", "--suite", "paley-wiener"]
ONE_SIDED = {"rhs": {"kind": "one_sided_exp"}}
BUMP = {"rhs": {"kind": "bump"}}
DEMO = ["demo-cylinder", "--n", "1", "--phi", PHI,
        "--out-problem", "{dir}/demo.json"]

# row id: (command, overrides of base_problem() sections, base, changed).
# A field row sets the field to each value; an option row appends
# [option, value] to the command (nothing for None), and argparse keeps
# the last occurrence of an option.
KNOBS = {
    "schema_version": (["spectrum"], {}, 1, 2),
    # degree and dim are checked against the coefficients' count and shape
    "pencil.degree": (["spectrum"], {}, 1, 2),
    "pencil.dim": (["spectrum"], {}, 1, 2),
    "pencil.coefficients": (["spectrum"], {}, [[[[1.0, 0.0]]], [[[0.0, 1.0]]]],
                            [[[[1.0, 0.0]]], [[[0.0, 2.0]]]]),
    "pencil.norm_forms": (CONTINUATION, {}, IDENTITY_FORMS,
                          [[[[1.0, 0.0]]], [[[2.0, 0.0]]]]),
    "geometry.cone.angle": (["clearance"], CLEAR, math.pi / 4,
                            3 * math.pi / 4),
    "geometry.cone.vertex": (["clearance"], CLEAR, [1.0, 0.0], [-1.0, 0.0]),
    "geometry.cone.orientation": (["clearance"], CLEAR, -1, 1),
    "geometry.weight": (["solve"], {}, [0.0, 0.0], [0.0, 0.3]),
    "grid.half_width": (["solve"], {}, 20.0, 16.0),
    "grid.count": (["solve"], {}, COUNT, 2 * COUNT),
    "rhs.kind": (["solve"], {}, "gaussian", "bump"),
    "rhs.center[gaussian]": (["solve"], {}, [0.0, 0.0], [1.0, 0.0]),
    "rhs.width[gaussian]": (["solve"], {}, 1.0, 2.0),
    "rhs.amplitude[gaussian]": (["solve"], {}, [1.0, 0.0], [2.0, 0.0]),
    "rhs.cross_section[gaussian]": (["solve"], {}, [[1.0, 0.0]], [[2.0, 0.0]]),
    "rhs.center[shifted_gaussian]": (["solve"], {"rhs": SHIFTED},
                                     [5.0, 0.0], [3.0, 0.0]),
    "rhs.width[shifted_gaussian]": (["solve"], {"rhs": SHIFTED}, 1.0, 2.0),
    "rhs.amplitude[shifted_gaussian]": (["solve"], {"rhs": SHIFTED},
                                        [1.0, 0.0], [0.0, 1.0]),
    "rhs.cross_section[shifted_gaussian]": (["solve"], {"rhs": SHIFTED},
                                            [[1.0, 0.0]], [[0.5, 0.0]]),
    "rhs.rate[one_sided_exp]": (PALEY_WIENER, ONE_SIDED, 1.0, 2.0),
    "rhs.cross_section[one_sided_exp]": (PALEY_WIENER, ONE_SIDED,
                                         [[1.0, 0.0]], [[3.0, 0.0]]),
    "rhs.half_width[bump]": (PALEY_WIENER, BUMP, 1.0, 2.0),
    "rhs.cross_section[bump]": (PALEY_WIENER, BUMP, [[1.0, 0.0]],
                                [[2.0, 0.0]]),
    "rhs.values[sampled]": (["solve"], {"rhs": {"kind": "sampled"}},
                            _samples(1.0), _samples(2.0)),
    "perturbation.kind": (["solve"], NEUMANN, "none", "rational_decay"),
    "perturbation.epsilon[rational_decay]": (["solve"], NEUMANN, 0.05, 0.1),
    "perturbation.pole_scale[rational_decay]": (["solve"], NEUMANN, 3.0, 4.0),
    "solver.res_tol": (CONTINUATION, {}, 1e-6, 1e-30),
    "solver.scale_tol": (["solve", "--scaled", PHI], {}, 1e-6, 1e-30),
    "solver.max_iter": (["solve"], NEUMANN, 50, 1),
    "solver.phi_list": (CONTINUATION, {}, [math.pi / 8], [math.pi / 16]),
    "spectrum --radius": (["spectrum"], {}, "10", "0.5"),
    "clearance --radius": (["clearance"], VIOLATED, "10", "0.5"),
    "solve --scaled": (["solve"], {}, None, PHI),
    "verify --suite": (["verify"], {}, "parseval", "hardy"),
    "verify --side": (PALEY_WIENER, ONE_SIDED, "backward-support",
                      "forward-support"),
    "verify --phi": (CONTINUATION, {}, None, PHI),
    "verify --offset": (CONTINUATION, {}, None, "0.5"),
    "demo-cylinder --n": (DEMO, {}, "1", "2"),
    "demo-cylinder --phi": (DEMO, {}, PHI, str(math.pi / 32)),
    "demo-cylinder --out-problem": (DEMO, {}, "{dir}/demo.json",
                                    "{dir}/other.json"),
}

# report lines that repeat a problem field or a CLI option whatever its
# effect: the config echo, and the echo of --suite, --side, --phi,
# --scaled, --offset, --n and --radius
_ECHO = re.compile(r"# (pencil\.degree|pencil\.dim|grid\.half_width|"
                   r"grid\.count|cone\.angle|cone\.orientation|weight|"
                   r"rhs\.kind|suite|side|phi|offset|n|search_radius)=")


def _set_field(data, path, value):
    *parents, key = path.split(".")
    for name in parents:
        data = data.setdefault(name, {})
    data[key] = value


def _problem_for(row_id, sections, value):
    data = base_problem()
    data.update(copy.deepcopy(sections))
    if " --" not in row_id:
        _set_field(data, row_id.split("[")[0], value)
    return data


@pytest.fixture(scope="module")
def outcome(tmp_path_factory):
    """(exit code, report without its echo lines) of one CLI run,
    cached so that rows sharing a base run it once."""
    workdir = tmp_path_factory.mktemp("knobs")
    cache = {}

    def run(argv, data):
        key = (tuple(argv), json.dumps(data, sort_keys=True))
        if key not in cache:
            argv = [a.replace("{dir}", str(workdir)) for a in argv]
            problem = workdir / "problem.json"
            problem.write_text(key[1], encoding="utf-8")
            report = workdir / "report.csv"
            report.unlink(missing_ok=True)
            args = argv[:1] + ([] if argv[0] == "demo-cylinder"
                               else [str(problem)]) + argv[1:]
            code = main(args + ["--out", str(report)])
            text = report.read_text() if report.exists() else ""
            cache[key] = (code, [line for line in text.splitlines()
                                 if not _ECHO.match(line)])
        return cache[key]

    return run


@pytest.mark.parametrize("row_id", sorted(KNOBS))
def test_knob_has_an_effect(outcome, row_id):
    command, sections, base, changed = KNOBS[row_id]
    runs = []
    for value in (base, changed):
        argv = list(command)
        if " --" in row_id and value is not None:
            argv += [row_id.split(" ")[1], value]
        runs.append(outcome(argv, _problem_for(row_id, sections, value)))
    # the base run is a valid run, so a changed exit code is an effect;
    # numbers that differ only past 12 significant digits are rounding
    assert runs[0][0] == 0
    assert _rounded(runs[0]) != _rounded(runs[1])


_NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")


def _rounded(run):
    """(exit code, report lines) with every number at 12 significant digits."""
    code, lines = run
    return code, [_NUMBER.sub(lambda m: f"{float(m.group()):.12g}", line)
                  for line in lines]


def _maximal_problems():
    """One problem per rhs kind and per perturbation kind, each setting
    every field the rows name for it."""
    for kind in (*conescale.cli._RHS_FIELDS,
                 *conescale.cli._PERTURBATION_FIELDS):
        data = base_problem()
        data["solver"] = {"res_tol": 1e-6, "scale_tol": 1e-6, "max_iter": 50,
                          "phi_list": [math.pi / 8]}
        data["pencil"]["norm_forms"] = IDENTITY_FORMS
        data["perturbation"] = {"kind": "none"}
        section = "rhs" if kind in conescale.cli._RHS_FIELDS \
            else "perturbation"
        data[section] = {"kind": kind}
        for row_id, (_, _, value, _) in KNOBS.items():
            if row_id.endswith(f"[{kind}]"):
                _set_field(data, row_id.split("[")[0], value)
        yield data


def _accepted_fields(monkeypatch):
    """Every field path _require_keys accepts while parsing the maximal
    problems; a field of an object with a kind gets a [kind] suffix."""
    seen = set()
    require_keys = conescale.cli._require_keys

    def recording(obj, path, required, optional=()):
        kind = f"[{obj['kind']}]" if isinstance(obj, dict) and "kind" in obj \
            else ""
        for key in (*required, *optional):
            field = key if path == "problem" else f"{path}.{key}"
            seen.add(field if key == "kind" else field + kind)
        return require_keys(obj, path, required, optional)

    monkeypatch.setattr(conescale.cli, "_require_keys", recording)
    for data in _maximal_problems():
        parse_problem(data)
    # an object's own row is the rows of its fields
    return {field for field in seen
            if not any(other.startswith(field + ".") for other in seen)}


def _cli_options():
    """'command --option' for every option of every subcommand, except
    --help, --out (where the report goes) and the top-level --version."""
    parser = build_parser()
    subparsers = next(action for action in parser._actions
                      if isinstance(action, argparse._SubParsersAction))
    options = {f"conescale {max(action.option_strings, key=len)}"
               for action in parser._actions if action.option_strings}
    for name, sub in subparsers.choices.items():
        options |= {f"{name} {max(action.option_strings, key=len)}"
                    for action in sub._actions if action.option_strings}
    return {option for option in options
            if option.split(" ")[1] not in ("--help", "--out", "--version")}


def test_every_knob_has_a_row(monkeypatch):
    fields = _accepted_fields(monkeypatch)
    options = _cli_options()
    assert "rhs.values[sampled]" in fields and "verify --offset" in options
    assert fields | options == set(KNOBS)
