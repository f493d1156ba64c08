"""The benchmark tracer wraps gcp_hydro functions by name; each must exist.

A renamed or deleted target makes the traced benchmark read its metrics as
absent, which only the benchmark's own smoke check (not this suite) notices.
"""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _resolves(module_name, path):
    try:
        owner = importlib.import_module(module_name)
        for part in path.split("."):
            owner = getattr(owner, part)
    except (ImportError, AttributeError):
        return False
    return callable(owner)


def test_every_tracer_target_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    absent = [f"{module_name}.{path} ({span})" for module_name, path, span in tracer.TARGETS
              if not _resolves(module_name, path)]
    assert not absent, f"tracer targets missing from gcp_hydro: {absent}"
