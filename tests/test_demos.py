"""Smoke test: every demo script runs to completion."""

from pathlib import Path

import pytest

from child import run_python

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


def test_demos_found():
    assert len(DEMOS) == 4


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_exits_0(demo):
    proc = run_python(str(demo))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()
