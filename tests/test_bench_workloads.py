"""The benchmark loads each workload's config through ``load_config`` and
stops on any violation, so every config it builds must validate."""

import importlib.util
import sys
from pathlib import Path

import pytest

from gcp_hydro.experiments import load_config, validate

WORKLOADS = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"


def _workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up there
    spec.loader.exec_module(module)
    return module.WORKLOADS


@pytest.mark.parametrize("size", ["full", "smoke"])
def test_every_workload_config_validates(size):
    for workload in _workloads().values():
        cfg = load_config(workload.experiment, overrides=workload.overrides(size, 1))
        assert validate(cfg) == [], workload.name
