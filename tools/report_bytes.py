"""Write the reports of a fixed set of CLI runs, to compare two source trees.

Usage (from the repository root):

    python3 tools/report_bytes.py SRC OUT

SRC is the ``src`` directory to import conescale from, OUT a directory for
the reports (``<run>.csv``, one per run that writes one) and ``runs.json``
(each run's arguments, exit code and the last lines of its stderr).  Each
run is ``conescale.cli.main`` in a fresh interpreter with the BLAS thread
count pinned.  The problem files come from ``bench/workloads.py`` (its three
workloads at seeds 0 and 1) and from the runs' own ``demo-cylinder`` calls,
and all of them live in one fixed work directory, so the reports of two
trees echo the same ``problem_file``: when two trees compute the same bytes,
``diff -r OUT_A OUT_B`` is clean.  A pass takes about 15 s on two cores.
"""

import json
import math
import os
import re
import shutil
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORK = os.path.join(tempfile.gettempdir(), "conescale-report-bytes")
STDERR_LINES = 3

sys.path.insert(0, os.path.join(ROOT, "bench"))
from workloads import WORKLOADS  # noqa: E402

# imports conescale from argv[1] only, then runs main on the rest
BOOT = """\
import os, sys
src = os.path.realpath(sys.argv[1])
sys.path.insert(0, src)
import conescale.cli
if not os.path.realpath(conescale.cli.__file__).startswith(src + os.sep):
    sys.exit(f"conescale imported from {conescale.cli.__file__}")
sys.exit(conescale.cli.main(sys.argv[2:]))
"""


def _path(name):
    return os.path.join(WORK, name)


def _demo(name, n, phi):
    return name, ["demo-cylinder", "--n", str(n), "--phi", repr(phi),
                  "--out-problem", _path(f"{name}.json")]


def _runs():
    """(name, argv without --out) for every run, in order; workload
    problem files are written as their runs come up."""
    for name, workload in WORKLOADS.items():
        for seed in (0, 1):
            seed_dir = _path(f"seed{seed}")
            os.makedirs(seed_dir, exist_ok=True)
            argv = workload(seed, seed_dir).argv("-")
            yield f"{name}-seed{seed}", argv[:argv.index("--out")]
    yield _demo("demo8-minus-pi-2", 8, -math.pi / 2)
    yield _demo("demo8-zero", 8, 0.0)
    yield _demo("demo8-minus-pi-16", 8, -math.pi / 16)
    yield _demo("demo16-pi-8", 16, math.pi / 8)
    cyl = _path(os.path.join("seed0", "cylinder64_problem.json"))
    yield "cyl-solve", ["solve", cyl]
    yield "cyl-solve-scaled", ["solve", cyl, "--scaled", repr(math.pi / 16)]
    yield "cyl-spectrum", ["spectrum", cyl]
    yield "cyl-spectrum-r50", ["spectrum", cyl, "--radius", "50"]
    yield "cyl-clearance-r500", ["clearance", cyl, "--radius", "500"]
    neumann = _path(os.path.join("seed0", "neumann_problem.json"))
    yield "neumann-solve", ["solve", neumann]
    for suite in ("parseval", "hardy", "paley-wiener"):
        yield f"neumann-{suite}", ["verify", "--suite", suite, neumann]
    demo16 = _path("demo16-pi-8.json")
    yield "demo16-continuation", ["verify", "--suite", "continuation", demo16]
    yield "demo16-continuation-phi-offset", [
        "verify", "--suite", "continuation", demo16,
        "--phi", repr(-math.pi / 16), "--offset", "0.5"]
    with open(cyl, encoding="utf-8") as fh:
        data = json.load(fh)
    data["perturbation"] = {"kind": "rational_decay"}
    qcyl = _path("cylinder64_rational_decay.json")
    with open(qcyl, "w", encoding="utf-8") as fh:
        json.dump(data, fh)
    yield "cyl-rational-continuation", ["verify", "--suite", "continuation",
                                        qcyl]


def main(argv=None):
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2:
        print("usage: python3 tools/report_bytes.py SRC OUT", file=sys.stderr)
        return 2
    src, out = (os.path.abspath(a) for a in args)
    shutil.rmtree(WORK, ignore_errors=True)
    os.makedirs(WORK)
    os.makedirs(out, exist_ok=True)
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    record = {}
    for name, run_argv in _runs():
        # the report path is relative to OUT, so runs.json names no tree
        run_argv = run_argv + ["--out", f"{name}.csv"]
        proc = subprocess.run([sys.executable, "-c", BOOT, src] + run_argv,
                              cwd=out, env=env, capture_output=True,
                              text=True)
        # warning lines name the source file and line; keep neither
        stderr = re.sub(r"\S+\.py:\d+: ", "", proc.stderr)
        record[name] = {"argv": run_argv, "exit": proc.returncode,
                        "stderr": stderr.splitlines()[-STDERR_LINES:]}
        print(f"{name}: exit {proc.returncode}", flush=True)
    with open(os.path.join(out, "runs.json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
