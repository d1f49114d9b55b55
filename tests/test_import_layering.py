"""Import layering (DESIGN §3): each process loads only the layers it
runs.

The LPR analysis layers never load the simulator or the study runner,
and the optional transports and executors — the live telemetry plane's
HTTP stack, the process pool — load at first use.  Every check runs in
a fresh ``python -S`` interpreter with only ``src`` on the path, so
neither this test process nor a site hook can mask or fake a result.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"


def _loaded_by(code: str) -> set:
    """Every module name in ``sys.modules`` after running ``code``."""
    probe = code + "\nimport json, sys\nprint(json.dumps(sorted(sys.modules)))"
    env = dict(os.environ, PYTHONPATH=str(SRC))
    result = subprocess.run([sys.executable, "-S", "-c", probe], env=env,
                            capture_output=True, text=True, check=True)
    return set(json.loads(result.stdout.splitlines()[-1]))


def _offenders(loaded: set, packages) -> list:
    return sorted(name for name in loaded for package in packages
                  if name == package or name.startswith(package + "."))


# The packages below the simulator and the runner, and what none of
# them may load at import: an upper layer, or an optional transport or
# executor.
LOWER_LAYERS = ["repro.traces", "repro.net", "repro.mpls", "repro.igp",
                "repro.bgp", "repro.warts", "repro.obs", "repro.core"]
NOT_AT_IMPORT = ["repro.sim", "repro.par", "repro.verify", "repro.analysis",
                 "http.server", "concurrent.futures", "multiprocessing"]


def test_lpr_path_loads_no_simulator_runner_or_transport():
    """What ``repro classify`` runs: the pipeline, warts and ip2as."""
    loaded = _loaded_by(
        "import repro.core.pipeline, repro.warts, repro.net.ip2as")
    assert "repro.core.pipeline" in loaded
    assert _offenders(loaded, ["repro.sim", "repro.par", "http.server",
                               "concurrent.futures"]) == []


@pytest.mark.parametrize("layer", LOWER_LAYERS)
def test_lower_layer_loads_no_upper_layer(layer):
    loaded = _loaded_by(f"import {layer}")
    assert layer in loaded
    assert _offenders(loaded, NOT_AT_IMPORT) == []


@pytest.mark.parametrize("code", [
    "import repro.cli",
    "from repro.obs import TelemetryServer",
])
def test_telemetry_transport_loads_only_when_served(code):
    assert _offenders(_loaded_by(code), ["http.server"]) == []


def test_serial_study_loads_no_process_pool():
    loaded = _loaded_by(
        "from repro.par import StudySpec, run_study\n"
        "run = run_study(StudySpec(scale=0.25, cycles=1), workers=1)\n"
        "assert len(run.results) == 1\n")
    assert _offenders(loaded,
                      ["concurrent.futures", "multiprocessing"]) == []
