"""The CI workflow file parses, every step of every job runs something, and
the bench-smoke job runs each check of ``scripts/ci_checks.py`` once.

An unquoted ": " in one step name once made the whole file invalid YAML, so
no job ran and no local check reported it.  The job's checks live in the
script, so they run locally too; an inline Python program in the workflow
would run only in CI.
"""

import importlib.util
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
WORKFLOW = ROOT / ".github" / "workflows" / "tests.yml"


def test_every_workflow_step_runs_or_uses_something():
    yaml = pytest.importorskip("yaml")
    jobs = yaml.safe_load(WORKFLOW.read_text())["jobs"]
    assert jobs
    for name, job in jobs.items():
        assert job.get("steps"), f"job {name} has no steps"
        for step in job["steps"]:
            assert "run" in step or "uses" in step, f"job {name}: a step runs nothing: {step}"


def test_the_workflow_runs_every_ci_check_once():
    spec = importlib.util.spec_from_file_location("ci_checks", ROOT / "scripts" / "ci_checks.py")
    checks = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(checks)
    text = WORKFLOW.read_text()
    called = re.findall(r"python3 scripts/ci_checks\.py (\w+)", text)
    # Each check once, none the script lacks, in the order the script runs them all.
    assert called == list(checks.CHECKS)
    assert "python3 - " not in text and "python3 -c" not in text
