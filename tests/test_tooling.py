"""The CI workflow, the console script, the pytest configuration and the oldest Python
the project supports.

CI runs the suite and the benchmark self-test on Python 3.10 as well, so
every source, test and benchmark file must parse under the 3.10 grammar even
where only a newer Python is at hand.
"""
import argparse
import ast
import contextlib
import importlib
import io
import json
import re
import shlex
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


def test_benchmark_smoke_run_covers_every_declared_workload():
    # the smoke loop runs each workload BENCHMARK.json declares, and no other
    yaml = pytest.importorskip("yaml")
    declared = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]
    loops = [sorted(re.search(r"for workload in ([^;]*);", step["run"]).group(1).split())
             for path in WORKFLOWS
             for job in yaml.safe_load(path.read_text())["jobs"].values()
             for step in job["steps"] if step.get("name") == "Benchmark smoke run"]
    assert loops == [sorted(declared)]


def _leaf_parsers(parser: argparse.ArgumentParser) -> list:
    """The parsers of parser's commands, its own when it has no subcommands."""
    subs = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return [leaf for a in subs for p in a.choices.values() for leaf in _leaf_parsers(p)] \
        or [parser]


def test_console_script_step_runs_only_defined_commands():
    # the step calls the installed script, so nothing here runs it: each of
    # its lines must parse as a command that build_parser defines, or ask for
    # the help, and every command build_parser defines must appear in it
    yaml = pytest.importorskip("yaml")
    from tanglevec.cli import build_parser
    lines = [shlex.split(line) for path in WORKFLOWS
             for job in yaml.safe_load(path.read_text())["jobs"].values()
             for step in job["steps"] if step.get("name") == "Console script"
             for line in step["run"].splitlines() if line.strip()]
    assert lines
    run = set()
    for words in lines:
        assert words[0] == "tanglevec", words
        if words[1:] == ["--help", ">", "/dev/null"]:
            with contextlib.redirect_stdout(io.StringIO()), pytest.raises(SystemExit) as done:
                build_parser().parse_args(["--help"])
            assert done.value.code == 0
            continue
        try:
            args = build_parser().parse_args(words[1:])
        except SystemExit:
            pytest.fail(f"build_parser does not define {shlex.join(words)!r}")
        assert callable(args.func), words
        run.add(args.func)
    defined = {p.get_default("func") for p in _leaf_parsers(build_parser())}
    assert len(defined) == 11 and run == defined, \
        sorted(f.__name__ for f in defined - run)


def test_console_script_is_cli_main():
    tomllib = pytest.importorskip("tomllib")   # Python 3.11 on
    scripts = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]["scripts"]
    assert scripts == {"tanglevec": "tanglevec.cli:main"}
    module, name = scripts["tanglevec"].split(":")
    assert callable(getattr(importlib.import_module(module), name))


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
