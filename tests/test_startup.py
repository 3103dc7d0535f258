"""Start-up cost: scipy is loaded only by a pencil that needs QZ.

The test process itself imports scipy, so each check runs in a fresh
interpreter that imports conescale from this checkout.
"""

import json
import math
import os
import pathlib
import subprocess
import sys

import pytest

import conescale
from conescale.cli import main
from test_cli import linear_problem, quad_problem, write

SRC = str(pathlib.Path(conescale.__file__).parents[1])

# runs main(argv) and prints its exit code and whether scipy got loaded
RUN_MAIN = """
import json, sys
from conescale.cli import main
rc = main(sys.argv[1:])
print(json.dumps({"rc": rc, "scipy": "scipy" in sys.modules}))
"""


def fresh(code, *argv):
    """The JSON last printed by ``code`` in a fresh interpreter."""
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ,
               PYTHONPATH=SRC if not path else SRC + os.pathsep + path)
    proc = subprocess.run([sys.executable, "-c", code, *argv], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    return json.loads(proc.stdout.splitlines()[-1])


def fresh_main(argv):
    return fresh(RUN_MAIN, *argv)


def test_cli_import_leaves_scipy_unloaded():
    loaded = fresh("import json, sys, conescale.cli\n"
                   "print(json.dumps('scipy' in sys.modules))")
    assert loaded is False


def test_binomial_clearance_leaves_scipy_unloaded(tmp_path):
    # lam^2 I + K: solved by numpy's QR on the 2 x 2 matrix -K
    data = quad_problem()
    data["pencil"] = {"degree": 2, "dim": 2, "coefficients": [
        [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]],
        [[[0.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]],
        [[[2.0, 0.0], [1.0, 0.0]], [[1.0, 0.0], [3.0, 0.0]]]]}
    data["rhs"]["cross_section"] = [[1.0, 0.0], [0.0, 0.0]]
    argv = ["clearance", write(tmp_path, data),
            "--out", str(tmp_path / "r.csv")]
    assert fresh_main(argv) == {"rc": 0, "scipy": False}
    assert "# verdict=" in (tmp_path / "r.csv").read_text(encoding="utf-8")


def test_perturbed_continuation_leaves_scipy_unloaded(tmp_path):
    # the lam + i problem of neumann-cert with a rational_decay perturbation
    data = linear_problem()
    data["grid"]["count"] = 512
    data["rhs"] = {"kind": "shifted_gaussian", "center": [5.0, 0.0]}
    data["perturbation"] = {"kind": "rational_decay", "epsilon": 0.05,
                            "pole_scale": 3.0}
    data["solver"] = {"phi_list": [math.pi / 16]}
    argv = ["verify", "--suite", "continuation", write(tmp_path, data),
            "--out", str(tmp_path / "r.csv")]
    assert fresh_main(argv) == {"rc": 0, "scipy": False}
    assert "# verdict=holds" in (tmp_path / "r.csv").read_text(
        encoding="utf-8")


def _scaled_leading():
    data = quad_problem()
    data["pencil"]["coefficients"][0] = [[[2.0, 0.0]]]
    return data


def _singular_leading():
    # lam diag(1, 0) + A_1: regular, one finite and one infinite eigenvalue
    data = quad_problem()
    data["pencil"] = {"degree": 1, "dim": 2, "coefficients": [
        [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]],
        [[[1.0, 0.0], [0.5, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]]}
    data["rhs"]["cross_section"] = [[1.0, 0.0], [0.0, 0.0]]
    return data


@pytest.mark.parametrize("data", [_scaled_leading(), _singular_leading()],
                         ids=["leading_2I", "leading_singular"])
def test_qz_spectrum_loads_scipy_with_same_bytes(tmp_path, data):
    path = write(tmp_path, data)
    fresh_out, own_out = tmp_path / "fresh.csv", tmp_path / "own.csv"
    assert fresh_main(["spectrum", path, "--out", str(fresh_out)]) == {
        "rc": 0, "scipy": True}
    assert main(["spectrum", path, "--out", str(own_out)]) == 0
    assert "# table=spectrum" in own_out.read_text(encoding="utf-8")
    assert fresh_out.read_bytes() == own_out.read_bytes()
