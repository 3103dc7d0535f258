"""The benchmark tracer's targets must exist in the package.

``bench/spans.py`` wraps the functions named in its ``TARGETS`` table by
attribute path.  A rename in ``src/`` would otherwise surface only when a
traced benchmark run or ``bench/run.py --selftest`` dies with an
AttributeError.  The table is read by loading the file by path; ``install``
is never called, so nothing is patched.
"""

import importlib
import importlib.util
import pathlib

import pytest

SPANS = pathlib.Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def _targets():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


@pytest.mark.parametrize("target", _targets(),
                         ids=lambda t: f"{t[1]}.{t[2]}")
def test_target_resolves(target):
    _, module, path, _, _ = target
    owner = importlib.import_module(f"conescale.{module}")
    for part in path.split("."):
        owner = getattr(owner, part)
    assert callable(owner)
