"""The CI workflow file parses, every step of every job runs something, and
every inline Python program in it compiles.

An unquoted ": " in one step name once made the whole file invalid YAML, so
no job ran and no local check reported it.  The inline programs, heredocs
fed to ``python3 -`` and ``python3 -c`` bodies, run only in CI, so a syntax
error in one would otherwise show up there first.
"""

import re
import textwrap
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


HEREDOC = re.compile(r"python3 - <<'(\w+)'\n(.*?)^\1$", re.M | re.S)
INLINE = re.compile(r"python3 -c '([^']*)'")


def test_every_inline_python_program_compiles():
    yaml = pytest.importorskip("yaml")
    text = WORKFLOW.read_text()
    programs = []
    for name, job in yaml.safe_load(text)["jobs"].items():
        for step in job["steps"]:
            run = step.get("run", "")
            bodies = [body for _, body in HEREDOC.findall(run)] + INLINE.findall(run)
            programs += [(f"{name}: {step.get('name', '')}", body) for body in bodies]
    # Every invocation in the file is one the patterns above read.
    assert programs
    assert len(programs) == text.count("python3 - <<") + text.count("python3 -c ")
    for where, body in programs:
        compile(textwrap.dedent(body), where, "exec")
