"""Self-test of the benchmark's checkers: real outputs pass, corrupted ones fail.

Run from the root of a checkout:

    python3 -m pytest -q benchmarks/test_checks.py

Each test runs one small real pass of a workload, asserts that its checker
accepts the outputs, then corrupts one output and asserts that exactly the
affected items are rejected.
"""

from __future__ import annotations

import copy
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import spans  # noqa: E402
import workloads  # noqa: E402


def _run(workload, k):
    p = workload.prepare(k)
    workloads.run_pass(workload, p)
    return p


def _edit_csv(text: str, row: int, column: int, edit) -> str:
    lines = text.splitlines()
    fields = lines[row + 1].split(",")
    fields[column] = f"{edit(float(fields[column])):.11e}"
    lines[row + 1] = ",".join(fields)
    return "\n".join(lines) + "\n"


@pytest.fixture(scope="module")
def sweep_pass(tmp_path_factory):
    workload = workloads.LambdaSweeps(3, tmp_path_factory.mktemp("sweeps"))
    return workload, _run(workload, 1)


def test_sweeps_accept_real_output(sweep_pass):
    workload, p = sweep_pass
    assert workload.check(p) == 0


@pytest.mark.parametrize("command, row, column, edit", [
    ("sweep-qmmi", 10, 5, lambda v: -v),            # flipped sign on M4
    ("sweep-qmmi", 60, 1, lambda v: v + 1e-6),      # DP1 off the reference
    ("sweep-mqmmi", 42, 1, lambda v: -abs(v) - 0.1),  # hole inside the q1 window
    ("sweep-mqmmi", 80, 1, lambda v: abs(v) + 0.1),   # q1 window outside [0.29, 0.56]
    ("sweep-mqmmi", 50, 3, lambda v: abs(v)),       # q3 nonnegative in the interior
    ("sweep-dpi-extra", 5, 3, lambda v: -1e-6),     # DP6 below the floor
])
def test_sweeps_reject_one_corrupted_row(sweep_pass, command, row, column, edit):
    workload, p = sweep_pass
    bad = copy.deepcopy(p)
    out = bad.outputs[command]
    out["text"] = _edit_csv(out["text"], row, column, edit)
    assert workload.check(bad) == 1


def test_sweeps_reject_a_failed_command(sweep_pass):
    workload, p = sweep_pass
    bad = copy.deepcopy(p)
    bad.outputs["sweep-mqmmi"] = {"code": 2}
    assert workload.check(bad) == workload.points


def test_sweeps_reject_a_missing_row(sweep_pass):
    workload, p = sweep_pass
    bad = copy.deepcopy(p)
    out = bad.outputs["sweep-dpi-extra"]
    out["text"] = "\n".join(out["text"].splitlines()[:-1]) + "\n"
    assert workload.check(bad) == workload.points


def test_verify_checker(tmp_path):
    workload = workloads.VerifyLadder(3, tmp_path)
    workload.samples = 2
    p = _run(workload, 1)
    assert workload.check(p) == 0

    bad = copy.deepcopy(p)
    minima = bad.outputs[4]["summary"]["witness_minima"]
    minima["M4"] = abs(minima["M4"]) + 1.0   # above sample 0's own value
    assert workload.check(bad) == 1

    bad = copy.deepcopy(p)
    bad.outputs[8]["summary"]["passed"] = False
    assert workload.check(bad) == 1

    bad = copy.deepcopy(p)
    bad.outputs[6]["summary"]["seed"] += 1
    assert workload.check(bad) == 1


def test_wide_env_checker(tmp_path):
    workload = workloads.WideEnv(3, tmp_path)
    p = _run(workload, 1)
    assert workload.check(p) == 0

    bad = copy.deepcopy(p)
    bad.outputs["survey"]["certificate_max_mismatch"] = 1e-6
    assert workload.check(bad) == p.items

    bad = copy.deepcopy(p)
    bad.outputs["survey"]["witness_minima"]["M8c"] += 1.0
    assert workload.check(bad) == p.items


def test_process_tensor_checker(tmp_path):
    workload = workloads.ProcessTensorWorkload(3, tmp_path)
    p = _run(workload, 1)
    assert workload.check(p) == 0

    bad = copy.deepcopy(p)
    probs = bad.outputs["results"][0]["probs"]
    probs[0, 0, 0, 0] += 0.01   # perturbed table that still sums to one
    probs[1, 1, 1, 1] -= 0.01
    assert workload.check(bad) == 1

    bad = copy.deepcopy(p)
    bad.outputs["results"][1]["state"] = bad.outputs["results"][1]["state"] + 1e-6 * np.diag(
        [1.0, -1.0])
    assert workload.check(bad) == 1

    markov = [i for i, c in enumerate(p.inputs["circuits"]) if c[0] == "markov"]
    bad = copy.deepcopy(p)
    bad.outputs["results"][markov[0]]["gap"] = 1e-6
    bad.outputs["results"][markov[1]]["dpi"]["R1S2-R1S3"] = -1e-6
    assert workload.check(bad) == 2

    lam = [i for i, c in enumerate(p.inputs["circuits"]) if c[0] == "lambda"]
    bad = copy.deepcopy(p)
    bad.outputs["results"][lam[0]]["gap"] = 1e-4
    assert workload.check(bad) == 1


def test_self_time_subtracts_the_union_of_child_intervals():
    # children (1, 3) and (2, 5) overlap; clipped to the parent (0, 4) they cover 3
    assert spans._covered([(2.0, 5.0), (1.0, 3.0)], 0.0, 4.0) == pytest.approx(3.0)
    assert spans._covered([], 0.0, 4.0) == 0.0
