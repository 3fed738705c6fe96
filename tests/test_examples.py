"""Smoke tests: every shipped example must run clean end to end.

Each example is executed as a subprocess with arguments scaled down so
the whole module stays fast; the examples' own internal assertions
(validated sorts, load checks) make these more than exit-code checks.
"""

from __future__ import annotations

import pathlib
import subprocess
import sys

import pytest

EXAMPLES = pathlib.Path(__file__).resolve().parent.parent / "examples"


def run_example(name: str, *args: str, timeout: int = 300) -> str:
    proc = subprocess.run(
        [sys.executable, str(EXAMPLES / name), *args],
        capture_output=True,
        text=True,
        timeout=timeout,
    )
    assert proc.returncode == 0, (
        f"{name} exited {proc.returncode}\nstdout:\n{proc.stdout[-2000:]}\n"
        f"stderr:\n{proc.stderr[-2000:]}"
    )
    return proc.stdout


def test_quickstart():
    out = run_example("quickstart.py", "-K", "4", "-r", "2", "-n", "8000")
    assert "output valid" in out


def test_cmr_wordcount():
    out = run_example("cmr_wordcount.py")
    assert "count" in out.lower() or "word" in out.lower()


def test_reproduce_tables_fast():
    """The tables are closed forms: the example has no slow mode to skip."""
    out = run_example("reproduce_tables.py")
    assert "TeraSort" in out


def test_straggler_regression():
    out = run_example(
        "straggler_regression.py", "-t", "20", "-n", "8", "-k", "6"
    )
    assert "saved" in out
    assert "identical trajectories" in out


def test_scalable_sort():
    out = run_example(
        "scalable_sort.py", "-K", "6", "-g", "3", "-r", "2", "-n", "6000"
    )
    assert "output valid" in out
    assert "Grouped" in out


def test_wireless_computing():
    out = run_example(
        "wireless_computing.py", "-K", "4", "-r", "2", "-n", "4000"
    )
    assert "d2d" in out
    assert "less" in out


def test_examples_all_covered():
    """Every example script has a smoke test in this module."""
    scripts = {p.name for p in EXAMPLES.glob("*.py")}
    tested = {
        "quickstart.py",
        "cmr_wordcount.py",
        "reproduce_tables.py",
        "straggler_regression.py",
        "scalable_sort.py",
        "wireless_computing.py",
    }
    assert scripts == tested, scripts ^ tested
