"""The CI workflow and the oldest Python the project supports.

CI runs the suite and the benchmark self-test on Python 3.10 as well, so
every source, test and benchmark file must parse under the 3.10 grammar even
where only a newer Python is at hand.
"""
import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
WORKFLOWS = sorted((ROOT / ".github" / "workflows").glob("*.yml"))
SOURCES = sorted(p for d in ("src", "tests", "perfbench") for p in (ROOT / d).rglob("*.py"))


def test_workflow_parses_and_every_step_runs_something():
    yaml = pytest.importorskip("yaml")
    assert WORKFLOWS
    for path in WORKFLOWS:
        jobs = yaml.safe_load(path.read_text())["jobs"]
        assert jobs, path.name
        for name, job in jobs.items():
            assert job["steps"], (path.name, name)
            for step in job["steps"]:
                assert "run" in step or "uses" in step, (path.name, name, step)


def test_every_file_parses_under_python_3_10():
    assert len(SOURCES) > 10
    for path in SOURCES:
        ast.parse(path.read_text(), filename=str(path), feature_version=(3, 10))
