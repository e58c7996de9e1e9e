"""The demos run end to end in process: each finishes and prints."""

import runpy
import sys
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


def test_every_demo_is_found():
    assert [p.name for p in DEMOS] == ["intervention_window.py", "randomized_audit.py",
                                       "violation_regions.py"]


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_runs_and_prints(demo, capsys, monkeypatch):
    # randomized_audit reads its sample count from argv; the others ignore it
    monkeypatch.setattr(sys, "argv", [str(demo), "5"])
    runpy.run_path(str(demo), run_name="__main__")
    assert capsys.readouterr().out.strip()
