"""Every function the benchmark's tracer wraps must exist under the name it
uses, so that a refactor cannot silently break the traced benchmark run.

The tracer module is read and executed as a script, never imported into
the package and never installed, so the package is left untouched.
"""

import importlib
import runpy
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def resolve(modname, qualname):
    owner = importlib.import_module(f"quivsheaf.{modname}")
    for part in qualname.split("."):
        owner = getattr(owner, part)
    return owner


def test_every_traced_span_resolves_on_the_package():
    tracer = runpy.run_path(str(TRACER))
    missing = []
    for modname, qualname in list(tracer["SPANS"]) + list(tracer["COUNTERS"]):
        try:
            target = resolve(modname, qualname)
        except (ImportError, AttributeError):
            missing.append(f"{modname}.{qualname}")
            continue
        assert callable(target), f"{modname}.{qualname} is not callable"
    assert not missing, f"spans the tracer cannot install: {missing}"
