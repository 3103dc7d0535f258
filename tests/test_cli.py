import copy
import json
import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings, strategies as st

import conescale.cli
from conescale import TIME, Grid, Ray, RayFunction
from conescale.cli import (_complex_array, _complex_walk, _parse_rhs, main,
                           parse_problem, cylinder_problem_dict)
from conescale.errors import NumericalError, ValidationError
from conescale.solver import _apply_perturbation, _prepare_perturbation


def quad_problem(**overrides):
    data = {
        "schema_version": 1,
        "pencil": {"degree": 2, "dim": 1,
                   "coefficients": [[[[1.0, 0.0]]], [[[0.0, 0.0]]],
                                    [[[1.0, 0.0]]]]},
        "geometry": {"cone": {"angle": math.pi / 6, "vertex": [0.0, 2.0],
                              "orientation": 1},
                     "weight": [0.0, 0.0]},
        "grid": {"half_width": 20.0, "count": 2048},
        "rhs": {"kind": "gaussian"},
    }
    data.update(overrides)
    return data


def identity_problem():
    data = quad_problem()
    data["pencil"] = {"degree": 1, "dim": 1,
                      "coefficients": [[[[0.0, 0.0]]], [[[1.0, 0.0]]]]}
    return data


def linear_problem():
    data = quad_problem()
    data["pencil"] = {"degree": 1, "dim": 1,
                      "coefficients": [[[[1.0, 0.0]]], [[[0.0, 1.0]]]]}
    return data


def large_root_problem(lead=1.0):
    """lead (lam - 2e8), with a cone of angle pi/8 about the positive real
    axis."""
    data = linear_problem()
    data["pencil"]["coefficients"] = [[[[lead, 0.0]]], [[[-2e8 * lead, 0.0]]]]
    data["geometry"]["cone"] = {"angle": math.pi / 8, "vertex": [0.0, 0.0],
                                "orientation": 1}
    return data


def write(tmp_path, data, name="problem.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data), encoding="utf-8")
    return str(path)


def run(args):
    return main(args)


def table_lines(text, name):
    lines = text.splitlines()
    start = lines.index(f"# table={name}")
    out = []
    for line in lines[start + 1:]:
        if line.startswith("#"):
            break
        out.append(line)
    return out


class TestSpectrumCommand:
    def test_identity_empty(self, tmp_path, capsys):
        path = write(tmp_path, identity_problem())
        assert run(["spectrum", path]) == 0
        rows = table_lines(capsys.readouterr().out, "spectrum")
        assert rows == ["re,im,multiplicity,residual"]

    def test_quadratic_rows(self, tmp_path, capsys):
        path = write(tmp_path, quad_problem())
        assert run(["spectrum", path]) == 0
        rows = table_lines(capsys.readouterr().out, "spectrum")
        assert len(rows) == 3
        assert rows[1].startswith("0,-1,1,")
        assert rows[2].startswith("0,1,1,")

    def test_radius_filter(self, tmp_path, capsys):
        path = write(tmp_path, quad_problem())
        assert run(["spectrum", path, "--radius", "0.5"]) == 0
        rows = table_lines(capsys.readouterr().out, "spectrum")
        assert len(rows) == 1

    def test_large_finite_eigenvalue_listed(self, tmp_path, capsys):
        # A_0 = 1 is regular, so 2e8 is a finite eigenvalue, not a dropped one
        path = write(tmp_path, large_root_problem())
        assert run(["spectrum", path]) == 0
        out = capsys.readouterr().out
        assert "# note=" not in out
        assert table_lines(out, "spectrum")[1:] == ["200000000,0,1,0"]

    def test_large_finite_eigenvalue_listed_on_qz(self, tmp_path, capsys):
        # 2 lam - 4e8 goes through QZ (A_0 = 2 is not I); its pair (alpha,
        # beta) has beta far from 0, so 2e8 is finite however large
        path = write(tmp_path, large_root_problem(lead=2.0))
        assert run(["spectrum", path]) == 0
        out = capsys.readouterr().out
        assert "# note=" not in out
        assert table_lines(out, "spectrum")[1:] == ["200000000,0,1,0"]


MALFORMED = {
    "missing_degree": lambda d: d["pencil"].pop("degree"),
    "unknown_field": lambda d: d.update(extra_field=1),
    "bad_complex_pair": lambda d: d["geometry"].update(weight=[0.0]),
    "ragged_coefficients": lambda d: d["pencil"].update(
        coefficients=[[[[1.0, 0.0]]], [[[0.0, 0.0]]]]),
    "bad_rhs_kind": lambda d: d["rhs"].update(kind="sinusoid"),
}


class TestValidation:
    @pytest.mark.parametrize("name", sorted(MALFORMED))
    def test_malformed_rejected_exit_2(self, tmp_path, capsys, name):
        data = quad_problem()
        MALFORMED[name](data)
        path = write(tmp_path, data, f"{name}.json")
        assert run(["spectrum", path]) == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("mutate, field, message", [
        (lambda d: d["geometry"].update(weight=[True, False]),
         "geometry.weight", "pair"),
        (lambda d: d["pencil"]["coefficients"][0][0].__setitem__(0, [1, False]),
         "pencil.coefficients[0][0][0]", "pair"),
        (lambda d: d["grid"].update(half_width=10 ** 400),
         "grid.half_width", "finite number"),
        (lambda d: d["geometry"].update(weight=[0, -10 ** 400]),
         "geometry.weight", "finite number"),
    ], ids=["bool_weight", "bool_coefficient", "huge_int", "huge_int_pair"])
    def test_unrepresentable_numbers_rejected(self, tmp_path, capsys, mutate,
                                              field, message):
        data = quad_problem()
        mutate(data)
        assert run(["spectrum", write(tmp_path, data)]) == 2
        err = capsys.readouterr().err
        assert f"error: {field}:" in err and message in err

    def test_diagnostic_names_field(self):
        data = quad_problem()
        del data["pencil"]["degree"]
        with pytest.raises(ValidationError, match="pencil.degree"):
            parse_problem(data)

    def test_wrong_schema_version(self, tmp_path):
        path = write(tmp_path, quad_problem(schema_version=2))
        assert run(["spectrum", path]) == 2

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json", encoding="utf-8")
        assert run(["spectrum", str(path)]) == 2

    def test_sampled_rhs_roundtrip(self, tmp_path, capsys):
        data = identity_problem()
        count = data["grid"]["count"]
        t = np.linspace(-20.0, 20.0, count)
        vals = np.exp(-t ** 2)
        data["rhs"] = {"kind": "sampled",
                       "values": [[v, 0.0] for v in vals]}
        path = write(tmp_path, data)
        assert run(["solve", path]) == 0


# every finite float, and ints up to the largest one (2^1024 - 2^971)
_NUMBERS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.integers(-2 ** 70, 2 ** 70),
    st.sampled_from([-0.0, 2 ** 53 + 1, 2 ** 63, 2 ** 64 + 1,
                     2 ** 1024 - 2 ** 971, -(2 ** 1024 - 2 ** 971)]))
# each is refused by the walk, with the path of the entry it sits in
_BAD_NUMBERS = st.sampled_from([True, False, "1.5", None, math.nan, math.inf,
                                -math.inf, 10 ** 400, -10 ** 400,
                                2 ** 1024 - 2 ** 970])


# (shape, path, labels, row_form) of each kind of complex array a problem
# file holds, the first axis of length n (N for samples)
_KINDS = {
    "matrix": (lambda n, N: (n, n), "pencil.coefficients[1]",
               ("rows", "entries"), False),
    "cross_section": (lambda n, N: (n,), "rhs.cross_section", ("entries",),
                      False),
    "sampled_pairs": (lambda n, N: (N,), "rhs.values",
                      ("sample rows", "components"), True),
    "sampled_rows": (lambda n, N: (N, n), "rhs.values",
                     ("sample rows", "components"), True),
}


def _pairs(draw, shape):
    if not shape:
        return [draw(_NUMBERS), draw(_NUMBERS)]
    return [_pairs(draw, shape[1:]) for _ in range(shape[0])]


def _at(value, index):
    for i in index:
        value = value[i]
    return value


@st.composite
def _arrays(draw, valid):
    """(nested list of [re, im] pairs, the reader's arguments but the
    value); an invalid draw carries one defect the walk refuses."""
    kind = draw(st.sampled_from(sorted(_KINDS)))
    shape_of, path, labels, row_form = _KINDS[kind]
    shape = shape_of(draw(st.integers(1, 3)), draw(st.integers(1, 4)))
    m = _pairs(draw, shape)
    if valid:
        return m, (shape, path, labels, row_form)
    index = tuple(draw(st.integers(0, k - 1)) for k in shape)
    *up, last = index
    parent, pair = _at(m, up), _at(m, index)
    defect = draw(st.sampled_from(["number", "ragged_row", "tuple_row",
                                   "three_entries", "scalar_entry",
                                   "dict_entry", "string_entry",
                                   "count_kept", "missing_row", "wrong_n"]))
    if defect == "number":
        pair[draw(st.integers(0, 1))] = draw(_BAD_NUMBERS)
    elif defect == "ragged_row":
        del parent[last]
    elif defect == "tuple_row" and up:
        _at(m, up[:-1])[up[-1]] = tuple(parent)
    elif defect == "tuple_row":
        m = tuple(m)
    elif defect == "three_entries":
        pair.append(0.0)
    elif defect == "scalar_entry":
        parent[last] = 1.0
    elif defect == "dict_entry":
        # JSON objects have string keys; int keys would flatten to numbers
        keys = draw(st.sampled_from([("re", "im"), (0, 1)]))
        parent[last] = dict(zip(keys, pair))
    elif defect == "string_entry":
        parent[last] = draw(st.sampled_from(["12", "ab", "1j"]))
    elif defect == "count_kept" and math.prod(shape) > 1:
        # a 3-entry and a 1-entry pair: the numbers still count 2 prod(shape)
        flat = list(np.ndindex(*shape))
        other = flat[(flat.index(index) + draw(st.integers(1, len(flat) - 1)))
                     % len(flat)]
        pair.append(_at(m, other).pop())
    elif defect == "count_kept":
        pair.append(0.0)
    elif defect == "missing_row":
        m.pop()
    elif defect == "wrong_n":
        axis = draw(st.integers(0, len(shape) - 1))
        shape = shape[:axis] + (shape[axis] + 1,) + shape[axis + 1:]
    return m, (shape, path, labels, row_form)


def _parse_outcome(parse, value, args):
    try:
        arr = np.asarray(parse(copy.deepcopy(value), *args))
    except ValidationError as exc:
        return str(exc), exc.field
    return arr.shape, arr.dtype, arr.tobytes()


def _refuse_walk(*args):
    raise AssertionError("walked a valid array")


class TestMatrixParse:
    """Matrices, cross sections and both forms of sampled rows all go
    through one reader, _complex_array, whose walk names the bad field."""

    @settings(max_examples=200, deadline=None)
    @given(_arrays(valid=True))
    def test_valid_matches_walk_bitwise(self, case):
        value, args = case
        walk = _parse_outcome(_complex_walk, value, args)
        with mock.patch.object(conescale.cli, "_complex_walk", _refuse_walk):
            fast = _parse_outcome(_complex_array, value, args)
        assert fast == walk
        assert fast[:2] == (args[0], np.dtype(complex))

    @settings(max_examples=300, deadline=None)
    @given(_arrays(valid=False))
    def test_invalid_matches_walk_message_and_path(self, case):
        value, args = case
        walk = _parse_outcome(_complex_walk, value, args)
        assert isinstance(walk[0], str)
        assert _parse_outcome(_complex_array, value, args) == walk

    @settings(max_examples=100, deadline=None)
    @given(st.integers(2, 6), st.booleans(), st.data())
    def test_sampled_rows_keep_the_first_rows_form(self, count, rows, data):
        # one component: [re, im] rows or one-pair rows, as the first row
        # has it; a row of the other form is refused with its path
        values = [[float(k), -0.5] for k in range(count)]
        odd = data.draw(st.sets(st.integers(1, count - 1), max_size=count))
        for k in range(count):
            if rows != (k in odd):
                values[k] = [values[k]]
        grid = Grid(10.0, count)
        want = np.arange(count) - 0.5j
        try:
            got = _parse_rhs({"kind": "sampled", "values": values}, 1, grid)
        except ValidationError as exc:
            assert odd and exc.field == f"rhs.values[{min(odd)}]"
        else:
            assert not odd
            assert got.values.tobytes() == want.reshape(count, 1).tobytes()

    def test_valid_input_takes_one_array(self, monkeypatch):
        monkeypatch.setattr(conescale.cli, "_complex_walk", _refuse_walk)
        arr = _complex_array([[[-0.0, 2 ** 53 + 1], [1, 2.5]],
                              [[0, 0], [3, -4]]], (2, 2), "m",
                             ("rows", "entries"))
        assert arr.tobytes() == np.array(
            [[complex(-0.0, 2 ** 53 + 1), 1 + 2.5j], [0j, 3 - 4j]]).tobytes()

    def test_pair_rows_of_a_vector_problem_name_the_row(self):
        grid = Grid(10.0, 2)
        with pytest.raises(ValidationError) as exc:
            _parse_rhs({"kind": "sampled",
                        "values": [[[1.0, 0.0], [2.0, 0.0]], [1.0, 0.0]]},
                       2, grid)
        assert exc.value.field == "rhs.values[1]"
        assert "expected 2 components" in str(exc.value)


class TestClearanceCommand:
    def test_clear(self, tmp_path, capsys):
        path = write(tmp_path, quad_problem())
        assert run(["clearance", path]) == 0
        assert "# verdict=clear" in capsys.readouterr().out

    def test_violated(self, tmp_path, capsys):
        data = quad_problem()
        data["geometry"]["cone"] = {"angle": math.pi, "vertex": [0.0, 0.0],
                                    "orientation": 1}
        path = write(tmp_path, data)
        assert run(["clearance", path]) == 0
        out = capsys.readouterr().out
        assert "# verdict=violated" in out
        assert len(table_lines(out, "violations")) == 3

    def test_large_finite_eigenvalue_violates(self, tmp_path, capsys):
        path = write(tmp_path, large_root_problem())
        assert run(["clearance", path]) == 0
        out = capsys.readouterr().out
        assert "# note=" not in out
        assert "# search_radius=400000001\n# verdict=violated\n" in out
        assert table_lines(out, "violations")[1:] == ["200000000,0"]

    def test_large_finite_eigenvalue_violates_on_qz(self, tmp_path, capsys):
        path = write(tmp_path, large_root_problem(lead=2.0))
        assert run(["clearance", path]) == 0
        out = capsys.readouterr().out
        assert "# note=" not in out
        assert "# search_radius=400000001\n# verdict=violated\n" in out
        assert table_lines(out, "violations")[1:] == ["200000000,0"]

    def test_dropped_infinite_eigenvalue_noted(self, tmp_path, capsys):
        # lam diag(1, 0) + diag(-1, 1): A_0 is singular, so QZ finds 1 and
        # one infinite eigenvalue, which the report names
        data = quad_problem()
        data["pencil"] = {"degree": 1, "dim": 2, "coefficients": [
            [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]],
            [[[-1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]]}
        data["rhs"]["cross_section"] = [[1.0, 0.0], [0.0, 0.0]]
        path = write(tmp_path, data)
        assert run(["clearance", path]) == 0
        lines = capsys.readouterr().out.splitlines()
        at = lines.index("# note=dropped 1 eigenvalue(s) at or near infinity")
        # 2 |1 - 2i| + 1 about the cone vertex 2i
        assert lines[at + 1:at + 3] == ["# search_radius=5.4721359549995796",
                                        "# verdict=clear"]


class TestSolveCommand:
    def test_identity_echoes_rhs(self, tmp_path, capsys):
        path = write(tmp_path, identity_problem())
        assert run(["solve", path]) == 0
        out = capsys.readouterr().out
        rows = table_lines(out, "solution")[1:]
        t, re, im = map(float, rows[1024].split(","))
        assert re == pytest.approx(math.exp(-t ** 2), abs=1e-10)
        assert abs(im) < 1e-10

    def test_residual_line(self, tmp_path, capsys):
        path = write(tmp_path, linear_problem())
        assert run(["solve", path]) == 0
        out = capsys.readouterr().out
        res = [l for l in out.splitlines() if l.startswith("# residual=")]
        assert res and float(res[0].split("=")[1]) <= 1e-6

    def test_scaled_deviation_line(self, tmp_path, capsys):
        path = write(tmp_path, linear_problem())
        assert run(["solve", path, "--scaled", str(math.pi / 8)]) == 0
        out = capsys.readouterr().out
        dev = [l for l in out.splitlines() if l.startswith("# deviation=")]
        assert dev and float(dev[0].split("=")[1]) <= 1e-6

    def test_scaled_runs_three_solves(self, tmp_path, monkeypatch):
        # the base, scaled and rotated-ray solves; the ray-energy table,
        # which the report does not print, is not computed
        calls = []
        solve = conescale.solver.solve_const

        def counting(*args, **kwargs):
            calls.append(1)
            return solve(*args, **kwargs)

        monkeypatch.setattr(conescale.solver, "solve_const", counting)
        path = write(tmp_path, linear_problem())
        assert run(["solve", path, "--scaled", str(math.pi / 8),
                    "--out", str(tmp_path / "report.csv")]) == 0
        assert len(calls) == 3

    def test_solve_on_eigenvalue_line_exit_4(self, tmp_path, capsys):
        data = linear_problem()
        data["geometry"]["weight"] = [0.0, -1.0]   # line through -i
        path = write(tmp_path, data)
        assert run(["solve", path]) == 4

    def test_contraction_failure_exit_4(self, tmp_path, capsys):
        data = linear_problem()
        data["rhs"] = {"kind": "shifted_gaussian", "center": [5.0, 0.0]}
        data["perturbation"] = {"kind": "rational_decay", "epsilon": 50.0,
                                "pole_scale": 3.0}
        path = write(tmp_path, data)
        assert run(["solve", path]) == 4
        assert "not contracting" in capsys.readouterr().err

    def test_residual_above_1e6_refused_exit_4(self, tmp_path, capsys):
        # the first sweep's residual is already past 1e6: one-entry trace
        data = linear_problem()
        data["rhs"] = {"kind": "shifted_gaussian", "center": [5.0, 0.0]}
        data["perturbation"] = {"kind": "rational_decay", "epsilon": 1e8,
                                "pole_scale": 3.0}
        data["solver"] = {"res_tol": 1e-8}
        path = write(tmp_path, data)
        assert run(["solve", path]) == 4
        err = capsys.readouterr().err
        trace = err.split("(residual trace: ")[1].split(")")[0]
        assert "," not in trace and float(trace) > 1e6

    def test_scaled_with_perturbation_exit_2(self, tmp_path, capsys):
        # the variable solve has no scaled variant; --scaled is refused
        # instead of being ignored
        data = linear_problem()
        data["rhs"] = {"kind": "shifted_gaussian", "center": [5.0, 0.0]}
        data["perturbation"] = {"kind": "rational_decay", "epsilon": 0.05,
                                "pole_scale": 3.0}
        path = write(tmp_path, data)
        assert run(["solve", path, "--scaled", str(math.pi / 16)]) == 2
        assert "--scaled is not supported" in capsys.readouterr().err

    def test_variable_solve_converges(self, tmp_path, capsys):
        data = linear_problem()
        data["rhs"] = {"kind": "shifted_gaussian", "center": [5.0, 0.0]}
        data["perturbation"] = {"kind": "rational_decay", "epsilon": 0.05,
                                "pole_scale": 3.0}
        data["solver"] = {"res_tol": 1e-8}
        path = write(tmp_path, data)
        assert run(["solve", path]) == 0
        out = capsys.readouterr().out
        assert "# mode=variable" in out


def test_rational_decay_sampled_once_per_ray():
    # one call on all nodes gives bitwise the per-node profile
    # eps / (z^2 + s^2), as one identity term of Q_0; Q_1 = Q_2 = 0
    data = cylinder_problem_dict(3, math.pi / 16, count=256)
    data["perturbation"] = {"kind": "rational_decay", "epsilon": 0.05,
                            "pole_scale": 3.0}
    vp = parse_problem(data).variable()
    grid = vp.base.rhs.grid
    z = vp.base.ray.points(grid.nodes)
    per_j = _prepare_perturbation(vp, grid)
    want = np.array([0.05 / (zk ** 2 + 9.0) for zk in z])
    [(profile, matrix)] = per_j[0]
    assert np.array_equal(profile, want) and np.array_equal(matrix, np.eye(3))
    assert per_j[1] == [] and per_j[2] == []


def test_rational_decay_forms_no_stack():
    # n = 32, N = 2048: one (N, n, n) complex stack is 32 MiB; sampling the
    # terms and one application hold a few (N, n) arrays at a time
    data = cylinder_problem_dict(32, math.pi / 16, count=2048)
    data["perturbation"] = {"kind": "rational_decay", "epsilon": 0.05,
                            "pole_scale": 3.0}
    vp = parse_problem(data).variable()
    base = vp.base
    ctx = base.context()
    cut = base.ray.points(np.array([vp.sector_start]))[0]
    fhat = ctx.forward(base.rhs)
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        per_j = _prepare_perturbation(vp, base.rhs.grid)
        out = _apply_perturbation(vp, per_j, base.rhs, fhat, ctx, cut)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert out.shape == (2048, 32) and np.all(np.isfinite(out))
    assert peak < 16 * 2 ** 20


class TestVerifyCommand:
    def test_parseval_suite(self, tmp_path, capsys):
        path = write(tmp_path, identity_problem())
        assert run(["verify", "--suite", "parseval", path]) == 0
        out = capsys.readouterr().out
        worst = [l for l in out.splitlines()
                 if l.startswith("# max_rel_err=")][0]
        assert float(worst.split("=")[1]) <= 1e-6
        # both sides' tail masses, where a truncating window shows
        lines = out.splitlines()
        header = lines[lines.index("# table=parseval") + 1].split(",")
        assert header[-2:] == ["lhs_tail", "rhs_tail"]

    @pytest.mark.parametrize("suite, sweep", [("parseval", "parseval sweep"),
                                              ("hardy", "hardy scan")])
    @pytest.mark.parametrize("rhs", [
        {"kind": "bump"}, {"kind": "sampled", "values": [[1.0, 0.0]] * 2048}],
        ids=["bump", "sampled"])
    def test_non_analytic_rhs_exit_2(self, tmp_path, capsys, suite, sweep,
                                     rhs):
        # sampled values would come back on any ray: this check is the guard
        data = linear_problem()
        data["rhs"] = rhs
        path = write(tmp_path, data)
        assert run(["verify", "--suite", suite, path]) == 2
        assert capsys.readouterr().err == (
            f"error: rhs: {sweep} needs an analytic rhs kind\n")

    def test_hardy_suite(self, tmp_path, capsys):
        path = write(tmp_path, linear_problem())
        assert run(["verify", "--suite", "hardy", path]) == 0
        assert "# verdict=member-consistent" in capsys.readouterr().out

    def test_paley_wiener_suite(self, tmp_path, capsys):
        data = identity_problem()
        data["rhs"] = {"kind": "one_sided_exp"}
        path = write(tmp_path, data)
        assert run(["verify", "--suite", "paley-wiener", path]) == 0
        out = capsys.readouterr().out
        assert "# verdict=consistent" in out
        assert "# opposite_verdict=correctly-rejected" in out

    def test_paley_wiener_overflow_prints_inf(self, tmp_path, capsys):
        # e^{0.1 t} on [-400, 0): the opposite sweep's transforms overflow
        # at offsets 1.5 and 2, which count as blow-up, not as an error
        data = identity_problem()
        data["rhs"] = {"kind": "one_sided_exp", "rate": 0.1}
        data["grid"] = {"half_width": 400.0, "count": 8192}
        path = write(tmp_path, data)
        assert run(["verify", "--suite", "paley-wiener", path]) == 0
        out = capsys.readouterr().out
        assert "# opposite_verdict=correctly-rejected" in out
        rows = table_lines(out, "paley_wiener")[-2:]
        assert rows == ["opposite,1.5,inf", "opposite,2,inf"]

    def test_continuation_suite(self, tmp_path, capsys):
        data = linear_problem()
        data["solver"] = {"phi_list": [math.pi / 8]}
        path = write(tmp_path, data)
        assert run(["verify", "--suite", "continuation", path]) == 0
        assert "# verdict=holds" in capsys.readouterr().out


    def test_continuation_blown_rays_explained(self, tmp_path, capsys):
        # a residual tolerance no solve can meet blows up every ray
        data = linear_problem()
        data["solver"] = {"phi_list": [math.pi / 8], "res_tol": 1e-30}
        path = write(tmp_path, data)
        assert run(["verify", "--suite", "continuation", path]) == 0
        out = capsys.readouterr().out
        assert "# verdict=blow-up" in out
        lines = out.splitlines()
        diags = [l for l in lines if l.startswith("# diagnostic=ray psi=")]
        assert len(diags) == len(table_lines(out, "continuation")) - 1 == 9
        assert all("blew up: solve residual" in l for l in diags)
        assert lines.index(diags[-1]) < lines.index("# table=continuation")

    def test_continuation_zero_rhs_holds(self, tmp_path, capsys):
        # every energy is 0, so nothing grew: ratio 0, not inf
        data = linear_problem()
        data["grid"]["count"] = 1024
        data["rhs"] = {"kind": "gaussian", "amplitude": [0.0, 0.0]}
        path = write(tmp_path, data)
        assert run(["verify", "--suite", "continuation", path]) == 0
        out = capsys.readouterr().out
        assert "# verdict=holds\n# ratio=0\n" in out
        assert "# diagnostic=" not in out
        assert {row.split(",")[1]
                for row in table_lines(out, "continuation")[1:]} == {"0"}

    def test_continuation_zero_base_explained(self, tmp_path, capsys,
                                              monkeypatch):
        # a zero base under a nonzero maximum is unbounded growth
        energies = iter([0.0] + [2.0] * 8)
        monkeypatch.setattr(conescale.solver, "derivative_energy",
                            lambda *args, **kwargs: next(energies))
        data = linear_problem()
        data["grid"]["count"] = 1024
        path = write(tmp_path, data)
        assert run(["verify", "--suite", "continuation", path]) == 0
        out = capsys.readouterr().out
        assert ("# verdict=blow-up\n# ratio=inf\n# diagnostic=base energy "
                "is 0 but a ray reaches 2; the ratio is unbounded\n") in out

    def test_continuation_blown_base_gives_infinite_ratio(self, tmp_path,
                                                          capsys, monkeypatch):
        # the ratio is measured against the psi = 0 ray only, never the
        # first ray that succeeds
        calls = []
        solve = conescale.solver.solve_const

        def first_blows_up(*args, **kwargs):
            calls.append(1)
            if len(calls) == 1:
                raise NumericalError("forced blow-up")
            return solve(*args, **kwargs)

        monkeypatch.setattr(conescale.solver, "solve_const", first_blows_up)
        data = linear_problem()
        data["grid"]["count"] = 1024
        path = write(tmp_path, data)
        assert run(["verify", "--suite", "continuation", path]) == 0
        out = capsys.readouterr().out
        assert ("# verdict=blow-up\n# ratio=inf\n"
                "# diagnostic=ray psi=0 blew up: forced blow-up\n") in out
        assert len(calls) == 9

    def test_continuation_holds_without_diagnostics(self, tmp_path, capsys):
        data = linear_problem()
        data["solver"] = {"phi_list": [math.pi / 8]}
        path = write(tmp_path, data)
        assert run(["verify", "--suite", "continuation", path]) == 0
        assert "# diagnostic=" not in capsys.readouterr().out

    def test_several_angles_exit_2(self, tmp_path, capsys):
        data = linear_problem()
        data["solver"] = {"phi_list": [0.3, 0.1, 0.2]}
        path = write(tmp_path, data)
        assert run(["verify", "--suite", "continuation", path]) == 2
        assert "solver.phi_list" in capsys.readouterr().err

    def test_max_iter_reaches_neumann_solves(self, tmp_path):
        data = linear_problem()
        data["rhs"] = {"kind": "shifted_gaussian", "center": [5.0, 0.0]}
        data["perturbation"] = {"kind": "rational_decay", "epsilon": 0.05,
                                "pole_scale": 3.0}
        outcomes = []
        for max_iter in ({}, {"max_iter": 50}, {"max_iter": 1}):
            data["solver"] = {"phi_list": [math.pi / 16], "res_tol": 1e-8,
                              **max_iter}
            out = tmp_path / "report.csv"
            code = run(["verify", "--suite", "continuation",
                        write(tmp_path, data), "--out", str(out)])
            outcomes.append((code, out.read_bytes() if code == 0 else None))
            out.unlink(missing_ok=True)
        # the default is 50; one sweep cannot reach res_tol 1e-8, and
        # running out of sweeps is a contraction failure (exit 4)
        assert outcomes[0] == outcomes[1] and outcomes[0][0] == 0
        assert outcomes[2] == (4, None)


def _per_cell_row(row):
    """The row rendering Report.table used before it formatted whole rows."""
    return ",".join(f"{float(v):.17g}"
                    if isinstance(v, (int, float, np.floating)) else str(v)
                    for v in row)


class TestReportTable:
    def test_meta_and_table_format_numbers_alike(self):
        values = (2, 0.1, np.float64(0.1), math.inf, math.nan)
        report = conescale.cli.Report("test")
        for value in values:
            report.meta("x", value)
        report.table("x", ("x",), [(value,) for value in values])
        meta = [line[len("# x="):] for line in report.lines[2:7]]
        assert meta == report.lines[-5:] == [
            "2", "0.10000000000000001", "0.10000000000000001", "inf", "nan"]

    def test_rows_match_per_cell_rendering(self):
        rows = [
            (0.1, -0.0, 0.0, math.inf, -math.inf, math.nan, "inf"),
            (3, True, False, np.int64(2 ** 60), np.float64(1e-310), "x%sy", -7),
            [np.float32(0.1), 2 ** 60, np.int32(-4), 1 + 2j, None, 1e308, 5e-324],
            (),
            (np.bool_(True), np.float64(-0.0), "nan", 12345678901234567890),
        ]
        report = conescale.cli.Report("test")
        report.table("mixed", ("a", "b"), rows)
        assert report.lines[-len(rows):] == [_per_cell_row(r) for r in rows]

    def test_solution_rows_interleave_re_im(self):
        grid = Grid(1.0, 3)
        values = np.array([[1 + 2j, -0.0 - 3j], [0.5, 1e-300j], [7.0, -1j]])
        u = RayFunction(Ray(0.0, 0j, TIME), grid, values)
        rows = conescale.cli._solution_rows(u)
        assert rows == [[t] + [x for v in row for x in (v.real, v.imag)]
                        for t, row in zip(grid.nodes.tolist(), values.tolist())]
        assert all(type(x) is float for row in rows for x in row)


class TestDemoCylinder:
    def test_byte_determinism_and_round_trip(self, tmp_path):
        out1 = tmp_path / "r1.csv"
        out2 = tmp_path / "r2.csv"
        prob = tmp_path / "cyl.json"
        args = ["demo-cylinder", "--n", "4", "--phi", str(math.pi / 16),
                "--out-problem", str(prob)]
        assert run(args + ["--out", str(out1)]) == 0
        assert run(args + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

        sol = tmp_path / "solve.csv"
        assert run(["solve", str(prob), "--out", str(sol)]) == 0
        demo_solution = table_lines(out1.read_text(), "solution")
        solve_solution = table_lines(sol.read_text(), "solution")
        assert demo_solution == solve_solution

    def test_eigenvalue_table(self, tmp_path, capsys):
        assert run(["demo-cylinder", "--n", "2", "--phi", str(math.pi / 16),
                    "--out-problem", str(tmp_path / "p.json")]) == 0
        out = capsys.readouterr().out
        line = [l for l in out.splitlines()
                if l.startswith("# eigenvalue_max_rel_err=")][0]
        assert float(line.split("=")[1]) <= 1e-10

    def test_eigenvalues_on_imaginary_axis(self, tmp_path, capsys):
        # lam^2 I + L_h is solved through L_h, so every eigenvalue is
        # exactly +-i sqrt(mu), with real part exactly 0
        assert run(["demo-cylinder", "--n", "16", "--phi", str(math.pi / 16),
                    "--out-problem", str(tmp_path / "p.json")]) == 0
        rows = [r.split(",") for r in
                table_lines(capsys.readouterr().out, "eigenvalues")[1:]]
        assert len(rows) == 32
        assert {r[0] for r in rows} == {"0"}
        ims = [float(r[1]) for r in rows]
        assert sorted(ims) == sorted(-x for x in ims)

    def test_eigenvalue_error_counts_real_part(self, tmp_path, capsys,
                                               monkeypatch):
        real = conescale.cli.spectrum

        def shifted(p, region=None):
            spec = real(p, region)
            return type(spec)(tuple(lam + 1e-6 for lam in spec.eigenvalues),
                              spec.multiplicities)

        monkeypatch.setattr(conescale.cli, "spectrum", shifted)
        assert run(["demo-cylinder", "--n", "2", "--phi", str(math.pi / 16),
                    "--out-problem", str(tmp_path / "p.json")]) == 0
        out = capsys.readouterr().out
        line = [l for l in out.splitlines()
                if l.startswith("# eigenvalue_max_rel_err=")][0]
        # the smallest closed-form eigenvalue at n = 2 is 3 (2/h sin(pi/6))
        assert float(line.split("=")[1]) == pytest.approx(1e-6 / 3.0,
                                                          rel=1e-6)

    def test_single_mode(self, tmp_path, capsys):
        assert run(["demo-cylinder", "--n", "1", "--phi", str(math.pi / 16),
                    "--out-problem", str(tmp_path / "p.json")]) == 0
        rows = table_lines(capsys.readouterr().out, "eigenvalues")[1:]
        h = 0.5
        target = 2.0 / h * math.sin(math.pi * h / 2.0)
        ims = sorted(float(r.split(",")[1]) for r in rows)
        assert ims == pytest.approx([-target, target], rel=1e-12)

    def test_phi_zero_degenerate(self, tmp_path, capsys):
        assert run(["demo-cylinder", "--n", "2", "--phi", "0.0",
                    "--out-problem", str(tmp_path / "p.json")]) == 0
        out = capsys.readouterr().out
        dev = [l for l in out.splitlines() if l.startswith("# deviation=")][0]
        assert float(dev.split("=")[1]) <= 1e-6

    def test_clearance_failure_exit_4(self, tmp_path, capsys):
        # phi wide enough that the cone reaches the imaginary-axis spectrum
        assert run(["demo-cylinder", "--n", "2", "--phi", str(math.pi / 2),
                    "--out-problem", str(tmp_path / "p.json")]) == 4

    def test_negative_phi_violation_writes_partial_report(self, tmp_path):
        # at -pi/2 the clockwise cone reaches the spectrum, as at +pi/2
        out = tmp_path / "r.csv"
        assert run(["demo-cylinder", "--n", "2", "--phi", str(-math.pi / 2),
                    "--out-problem", str(tmp_path / "p.json"),
                    "--out", str(out)]) == 4
        text = out.read_text()
        assert "# cone.orientation=-1\n" in text
        assert "# clearance=violated\n" in text
        assert len(table_lines(text, "violations")) == 5

    def test_negative_phi_echoes_clockwise_cone(self, tmp_path, capsys):
        assert run(["demo-cylinder", "--n", "2", "--phi", str(-math.pi / 16),
                    "--out-problem", str(tmp_path / "p.json")]) == 0
        out = capsys.readouterr().out
        assert f"# cone.angle={math.pi / 16!r}\n" in out
        assert "# cone.orientation=-1\n" in out
        assert "# clearance=clear\n" in out

    def test_no_cross_section_exit_2_writes_no_file(self, tmp_path, capsys):
        problem = tmp_path / "p.json"
        assert run(["demo-cylinder", "--n", "0", "--phi", "0.1",
                    "--out-problem", str(problem)]) == 2
        assert capsys.readouterr().err == (
            "error: --n: need at least one cross-section point\n")
        assert not problem.exists()

    @pytest.mark.parametrize("phi", ["4", "-3.2"])
    def test_phi_beyond_pi_exit_2_writes_no_file(self, tmp_path, capsys,
                                                 phi):
        problem = tmp_path / "p.json"
        assert run(["demo-cylinder", "--n", "4", "--phi", phi,
                    "--out-problem", str(problem)]) == 2
        assert capsys.readouterr().err == (
            "error: --phi: must lie in [-pi, pi]: the cone angle is |phi|\n")
        assert not problem.exists()

    @pytest.mark.parametrize("phi", [math.pi, -math.pi])
    def test_phi_at_pi_is_a_legal_cone(self, phi):
        parse_problem(cylinder_problem_dict(2, phi))

    def test_generated_file_validates(self, tmp_path):
        data = cylinder_problem_dict(3, math.pi / 16)
        parse_problem(copy.deepcopy(data))


class TestDeterminism:
    def test_solve_bytes_stable(self, tmp_path):
        path = write(tmp_path, quad_problem())
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run(["solve", path, "--out", str(a)]) == 0
        assert run(["solve", path, "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()


class TestExitCodes:
    @pytest.mark.parametrize("edit", [
        lambda d: d["geometry"].update(weight=[math.nan, 0.0]),
        lambda d: d["grid"].update(half_width=math.inf),
        lambda d: d.update(rhs={"kind": "sampled",
                                "values": [[math.inf, 0.0]] * 2048}),
    ], ids=["nan_weight", "inf_half_width", "inf_sample"])
    def test_non_finite_input_exit_2(self, tmp_path, capsys, edit):
        # json writes these as NaN / Infinity, which json.load accepts
        data = quad_problem()
        edit(data)
        path = write(tmp_path, data)
        assert run(["spectrum", path]) == 2
        assert "finite" in capsys.readouterr().err

    def test_scaled_with_non_analytic_rhs_exit_2(self, tmp_path):
        data = identity_problem()
        data["rhs"] = {"kind": "one_sided_exp"}
        path = write(tmp_path, data)
        assert run(["solve", path, "--scaled", str(math.pi / 8)]) == 2

    def test_scale_tol_enforced_exit_3(self, tmp_path, capsys):
        data = linear_problem()
        data["solver"] = {"scale_tol": 1e-30}
        path = write(tmp_path, data)
        assert run(["solve", path, "--scaled", str(math.pi / 8)]) == 3
        assert "scale_tol 1.000e-30" in capsys.readouterr().err

    def test_linalg_error_exit_3(self, tmp_path, capsys, monkeypatch):
        # LinAlgError subclasses ValueError; it must not read as bad input
        def fail(*args, **kwargs):
            raise np.linalg.LinAlgError("Singular matrix")

        monkeypatch.setattr(conescale.cli, "spectrum", fail)
        path = write(tmp_path, quad_problem())
        assert run(["spectrum", path]) == 3
        assert "Singular matrix" in capsys.readouterr().err

    @pytest.mark.parametrize("route, leading", [("numpy", 1.0),
                                                 ("scipy", 2.0)])
    @pytest.mark.parametrize("exc", [np.linalg.LinAlgError, ValueError])
    def test_eigensolver_failure_exit_3(self, tmp_path, capsys, monkeypatch,
                                        route, leading, exc):
        # lam^2 + 1 (A_0 = I, A_2 Hermitian) goes to numpy's eigh, any
        # other A_0 to QZ (scipy's eig); a ValueError from LAPACK is a
        # numerical failure too, not bad input
        def fail(*args, **kwargs):
            raise exc("Eigenvalues did not converge")

        if route == "numpy":
            monkeypatch.setattr(np.linalg, "eigh", fail)
        else:
            monkeypatch.setattr(scipy.linalg, "eig", fail)
        data = quad_problem()
        data["pencil"]["coefficients"][0] = [[[leading, 0.0]]]
        path = write(tmp_path, data)
        assert run(["spectrum", path]) == 3
        assert ("companion eigenvalue solve failed: Eigenvalues did not "
                "converge") in capsys.readouterr().err

    @pytest.mark.parametrize("exc", [np.linalg.LinAlgError, ValueError])
    def test_standard_eigensolver_failure_exit_3(self, tmp_path, capsys,
                                                 monkeypatch, exc):
        # lam^2 + i is binomial but not Hermitian: numpy's eig
        def fail(*args, **kwargs):
            raise exc("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eig", fail)
        data = quad_problem()
        data["pencil"]["coefficients"][2] = [[[0.0, 1.0]]]
        path = write(tmp_path, data)
        assert run(["spectrum", path]) == 3
        assert ("companion eigenvalue solve failed: Eigenvalues did not "
                "converge") in capsys.readouterr().err

    def test_continuation_suite_with_perturbation(self, tmp_path, capsys):
        data = linear_problem()
        data["rhs"] = {"kind": "shifted_gaussian", "center": [5.0, 0.0]}
        data["perturbation"] = {"kind": "rational_decay", "epsilon": 0.05,
                                "pole_scale": 3.0}
        data["solver"] = {"phi_list": [math.pi / 16]}
        path = write(tmp_path, data)
        assert run(["verify", "--suite", "continuation", path]) == 0
        assert "# verdict=holds" in capsys.readouterr().out
