"""The CI workflow file parses, and every step of every job runs something.

An unquoted ": " in one step name once made the whole file invalid YAML, so
no job ran and no local check reported it.
"""

from pathlib import Path

import pytest

WORKFLOW = Path(__file__).resolve().parents[1] / ".github" / "workflows" / "tests.yml"


def test_every_workflow_step_runs_or_uses_something():
    yaml = pytest.importorskip("yaml")
    jobs = yaml.safe_load(WORKFLOW.read_text())["jobs"]
    assert jobs
    for name, job in jobs.items():
        assert job.get("steps"), f"job {name} has no steps"
        for step in job["steps"]:
            assert "run" in step or "uses" in step, f"job {name}: a step runs nothing: {step}"
