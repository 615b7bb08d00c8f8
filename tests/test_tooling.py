"""The CI workflow, the pytest configuration and the oldest Python the project supports.

CI runs the suite and the benchmark self-test on Python 3.10 as well, so
every source, test and benchmark file must parse under the 3.10 grammar even
where only a newer Python is at hand.
"""
import ast
import subprocess
import sys
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


def test_a_failing_hypothesis_test_does_not_abort_the_run(tmp_path):
    # under the project's "every warning fails" filter, hypothesis reporting
    # a failing example must fail that test alone, not end the run
    pytest.importorskip("hypothesis")
    (tmp_path / "test_pair.py").write_text(
        "from hypothesis import given, strategies as st\n\n\n"
        "@given(st.integers())\n"
        "def test_fails(n):\n"
        "    assert n < 0\n\n\n"
        "def test_passes():\n"
        "    pass\n")
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(ROOT / "pyproject.toml"),
         "--rootdir", str(tmp_path), "-p", "no:cacheprovider", "-q", "test_pair.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300)
    assert run.returncode == 1, run.stdout + run.stderr
    assert "1 failed, 1 passed" in run.stdout
