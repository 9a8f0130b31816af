"""Every name the benchmark tracer wraps still exists in the package.

The tracer reports a name it cannot find as missing and its per-layer
metric as 0, so a rename or deletion would otherwise pass unnoticed.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def _targets():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)  # stdlib imports only; installs no wrappers
    return [(module, attr) for module, attr, _, _ in tracer.TARGETS]


TARGETS = _targets()


@pytest.mark.parametrize("module,attr", TARGETS, ids=[f"{m}.{a}" for m, a in TARGETS])
def test_traced_name_resolves(module, attr):
    owner = importlib.import_module(f"cultnovelty.{module}")
    for part in attr.split("."):
        owner = getattr(owner, part)
    assert callable(owner)
