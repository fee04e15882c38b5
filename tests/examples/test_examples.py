"""Every example script must run clean end to end."""

import subprocess
import sys
from pathlib import Path

import pytest

EXAMPLES_DIR = Path(__file__).resolve().parents[2] / "examples"

EXPECTED_MARKERS = {
    "quickstart.py": "confidential inference works",
    "healthcare_ehr.py": "access revoked",
    "multi_model_serving.py": "takeaway",
    "epc_pressure_study.py": "bottleneck moved",
}


@pytest.mark.parametrize("script", sorted(EXPECTED_MARKERS))
def test_example_runs(script):
    result = subprocess.run(
        [sys.executable, str(EXAMPLES_DIR / script)],
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert result.returncode == 0, result.stderr[-2000:]
    assert EXPECTED_MARKERS[script] in result.stdout


def test_every_example_is_covered():
    scripts = {p.name for p in EXAMPLES_DIR.glob("*.py")}
    assert scripts == set(EXPECTED_MARKERS)
