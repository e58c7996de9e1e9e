"""The four benchmark workloads: their inputs, their timed passes and their checks.

Each workload makes the inputs of pass k from (seed, k) alone, so the same
seed gives the same inputs and no two passes of a run share an input.
`prepare` builds a pass's inputs outside the timed window.  A pass is a
list of segments (a CLI command, a library call), and `run_segment` runs
one of them: it is the unit that run.py times and separates with
calibration passes.  `collect` reads what a pass wrote, and `check`
compares a pass's outputs with computations made apart from the program
(see reference.py) and returns the number of items whose check failed.
Neither runs inside a timed window.

Every item of a pass is one operation in the benchmark's count: a sweep
row, a `verify` command, an audited process or an analysed circuit.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import qmonogamy
from qmonogamy import cli

import reference as ref

FLOOR = -1e-9            # proven gaps may dip this far below zero (round-off)
MATCH_TOL = 1e-9         # agreement between the program and the reference
CERT_MISMATCH_CEIL = 1e-7  # the ceiling `verify` itself applies
GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


@dataclass
class Pass:
    """Inputs of one pass, filled with its outputs as its segments run."""

    k: int
    inputs: dict
    segments: list[tuple[object, int]]  # (segment key, items it completes)
    outputs: dict = field(default_factory=dict)

    @property
    def items(self) -> int:
        return sum(n for _, n in self.segments)


def run_pass(workload, p: Pass) -> None:
    """All segments of a pass in order, then `collect`."""
    for key, _ in p.segments:
        workload.run_segment(p, key)
    workload.collect(p)


# ---------------------------------------------------------------------------
# lambda-sweeps
# ---------------------------------------------------------------------------

class LambdaSweeps:
    """The three CLI sweeps on a 101-point grid shifted every pass.

    The grid step is 0.0099 and its start lies in [0, 0.0099), taken from a
    golden-ratio sequence, so two passes of a run never share a lambda value.
    """

    name = "lambda-sweeps"
    points = 101
    step = 0.0099
    commands = ("sweep-qmmi", "sweep-mqmmi", "sweep-dpi-extra")
    columns = {
        "sweep-qmmi": ["lambda", "DP1", "DP2", "DP3", "DP4", "M4"],
        "sweep-mqmmi": ["lambda", "M4_q1", "M4_q2", "M4_q3"],
        "sweep-dpi-extra": ["lambda", "DP5_markov", "DP5", "DP6", "DP7"],
    }
    q1_window_inside = (0.29, 0.56)
    q1_window_covers = (0.31, 0.54)
    q23_negative_on = (0.01, 0.99)

    def __init__(self, seed: int, out_dir: Path):
        self.out_dir = out_dir
        self.base = (seed * math.sqrt(2.0)) % 1.0

    def prepare(self, k: int) -> Pass:
        lo = ((self.base + k * GOLDEN) % 1.0) * self.step
        hi = lo + (self.points - 1) * self.step
        grid = [min(lo + j * self.step, hi) for j in range(self.points)]
        argv = {}
        for command in self.commands:
            argv[command] = [command, "--lambda-min", repr(lo), "--lambda-max", repr(hi),
                             "--step", repr(self.step),
                             "--output", str(self.out_dir / f"{command}.csv")]
        return Pass(k, {"argv": argv, "grid": grid},
                    [(command, self.points) for command in self.commands])

    def run_segment(self, p: Pass, command: str) -> None:
        p.outputs[command] = _run_cli(p.inputs["argv"][command])

    def collect(self, p: Pass) -> None:
        """Read the written files back, outside the timed window."""
        for command in self.commands:
            out = p.outputs[command]
            path = self.out_dir / f"{command}.csv"
            if out.get("code") == 0 and path.exists():
                out["text"] = path.read_text(encoding="utf-8")
                os.remove(path)

    def check(self, p: Pass) -> int:
        failed = 0
        grid = p.inputs["grid"]
        for command in self.commands:
            rows = _parse_rows(p.outputs[command], self.columns[command], grid)
            if rows is None:
                failed += len(grid)
                continue
            if command == "sweep-qmmi":
                failed += sum(not self._qmmi_ok(lam, row) for lam, row in zip(grid, rows))
            elif command == "sweep-mqmmi":
                failed += self._mqmmi_failures(grid, rows)
            else:
                failed += sum(min(row[1:]) < FLOOR for row in rows)
        return failed

    @staticmethod
    def _qmmi_ok(lam: float, row: list[float]) -> bool:
        want = ref.qmmi_row(lam)
        names = LambdaSweeps.columns["sweep-qmmi"][1:]
        return all(abs(got - want[n]) <= MATCH_TOL for got, n in zip(row[1:], names))

    def _mqmmi_failures(self, grid: list[float], rows: list[list[float]]) -> int:
        lo_in, hi_in = self.q1_window_inside
        lo_cov, hi_cov = self.q1_window_covers
        lo_neg, hi_neg = self.q23_negative_on
        in_window = [row[1] >= FLOOR for row in rows]
        bad = set()
        for j, lam in enumerate(grid):
            if in_window[j] and not lo_in <= lam <= hi_in:
                bad.add(j)
            if not in_window[j] and lo_cov <= lam <= hi_cov:
                bad.add(j)
            if lo_neg < lam < hi_neg and max(rows[j][2], rows[j][3]) >= 0.0:
                bad.add(j)
        # the window is contiguous: no gap rows inside the hull of its members
        # (members outside the allowed range are already counted above)
        members = [j for j, lam in enumerate(grid) if in_window[j] and lo_in <= lam <= hi_in]
        if members:
            bad.update(j for j in range(members[0], members[-1] + 1) if not in_window[j])
        return len(bad)


def _run_cli(argv: list[str]) -> dict:
    try:
        return {"code": cli.main(argv)}
    except Exception as exc:  # a crash fails the command's items
        return {"code": None, "error": repr(exc)}


def _parse_rows(out: dict, columns: list[str], grid: list[float]) -> list[list[float]] | None:
    """Rows of a sweep CSV, or None when the command or its output is unusable."""
    if out.get("code") != 0 or "text" not in out:
        return None
    lines = list(csv.reader(io.StringIO(out["text"])))
    if not lines or lines[0] != columns or len(lines) != len(grid) + 1:
        return None
    try:
        rows = [[float(x) for x in line] for line in lines[1:]]
    except ValueError:
        return None
    if any(len(row) != len(columns) or not all(map(math.isfinite, row)) for row in rows):
        return None
    if any(abs(row[0] - lam) > 1e-10 for row, lam in zip(rows, grid)):
        return None
    return rows


# ---------------------------------------------------------------------------
# verify-ladder
# ---------------------------------------------------------------------------

class VerifyLadder:
    """`verify --steps 4`, `6` and `8` through the CLI, seed advanced every pass."""

    name = "verify-ladder"
    samples = 10
    steps = (4, 6, 8)

    def __init__(self, seed: int, out_dir: Path):
        self.out_dir = out_dir
        self.base = 1000 + seed * 1_000_003

    def prepare(self, k: int) -> Pass:
        seed = self.base + k * self.samples
        argv = {steps: ["verify", "--steps", str(steps), "--samples", str(self.samples),
                        "--seed", str(seed),
                        "--output", str(self.out_dir / f"verify-{steps}.json")]
                for steps in self.steps}
        return Pass(k, {"argv": argv, "seed": seed}, [(steps, 1) for steps in self.steps])

    def run_segment(self, p: Pass, steps: int) -> None:
        p.outputs[steps] = _run_cli(p.inputs["argv"][steps])

    def collect(self, p: Pass) -> None:
        for steps in self.steps:
            out = p.outputs[steps]
            path = self.out_dir / f"verify-{steps}.json"
            if out.get("code") is not None and path.exists():
                out["summary"] = json.loads(path.read_text(encoding="utf-8"))
                os.remove(path)

    def check(self, p: Pass) -> int:
        return sum(not self._command_ok(steps, p.inputs["seed"], p.outputs[steps])
                   for steps in self.steps)

    def _command_ok(self, steps: int, seed: int, out: dict) -> bool:
        summary = out.get("summary")
        if out.get("code") != 0 or not summary or summary.get("passed") is not True:
            return False
        if (summary.get("steps"), summary.get("samples"), summary.get("seed")) != (
                steps, self.samples, seed):
            return False
        if summary.get("counterexample_seed") is not None:
            return False
        return _sample_agrees(steps, seed, (2, 2), summary["witness_minima"])


def _sample_agrees(steps: int, seed: int, dims: tuple[int, int],
                   minima: dict[str, float]) -> bool:
    """Rebuild sample 0 of a survey from its seed and recompute its witnesses.

    The reference values must be nonnegative, match the program's values
    for the same process, and bound the reported minima from above.
    """
    proc = qmonogamy.random_markov_process(steps, seed, *dims)
    kraus = [list(ch.kraus) for ch in proc.channels]
    mine = ref.chain_witnesses(proc.initial.mat, kraus, steps)
    if steps == 4:
        program = dict(qmonogamy.qdpi_witnesses(proc).entries)
        program["M4"] = qmonogamy.m4_witness(proc)
    elif steps == 6:
        program = qmonogamy.m6_witnesses(proc).entries
    else:
        program = qmonogamy.m8_witnesses(proc).entries
    if set(mine) != set(program) or set(mine) != set(minima):
        return False
    return all(mine[n] >= FLOOR and abs(mine[n] - program[n]) <= MATCH_TOL
               and minima[n] <= mine[n] + MATCH_TOL for n in mine)


# ---------------------------------------------------------------------------
# wide-env
# ---------------------------------------------------------------------------

class WideEnv:
    """Eight-state audits with qutrit environments, every sample certified.

    A library call, because the CLI fixes the dimensions at (2, 2).  The
    purified circuit has 2 * 3**7 * 2 = 8748 amplitudes and its largest
    marginal is 2187 x 2187.  One sample per call: with two, the thread
    pool ran two such eigensolves at once on two cores, each with two BLAS
    threads, and the run-to-run spread of items_per_cal was 0.13 over five
    runs, against 0.05 to 0.08 with one (README).
    """

    name = "wide-env"
    steps = 8
    dims = (2, 3)
    samples = 1

    def __init__(self, seed: int, out_dir: Path):
        self.base = 5000 + seed * 1_000_003

    def prepare(self, k: int) -> Pass:
        seed = self.base + k * self.samples
        return Pass(k, {"seed": seed, "samples": self.samples}, [("survey", self.samples)])

    def run_segment(self, p: Pass, key: str) -> None:
        seed, samples = p.inputs["seed"], p.inputs["samples"]
        try:
            p.outputs["survey"] = qmonogamy.random_markov_verify(
                self.steps, samples, dims=self.dims, seed=seed,
                certificate_samples=samples)
        except Exception as exc:
            p.outputs["error"] = repr(exc)

    def collect(self, p: Pass) -> None:
        pass

    def check(self, p: Pass) -> int:
        survey = p.outputs.get("survey")
        ok = (survey is not None
              and survey["samples"] == p.inputs["samples"]
              and survey["steps"] == self.steps
              and survey["counterexample_seed"] is None
              and survey["certificate_max_mismatch"] <= CERT_MISMATCH_CEIL
              and survey["ssa_certificate_min"] >= FLOOR
              and min(survey["witness_minima"].values()) >= FLOOR
              and _sample_agrees(self.steps, p.inputs["seed"], self.dims,
                                 survey["witness_minima"]))
        return 0 if ok else p.items


# ---------------------------------------------------------------------------
# process-tensor
# ---------------------------------------------------------------------------

class ProcessTensorWorkload:
    """Four-slot process tensors of lambda-example and random Markov circuits.

    Per circuit: build the tensor, the full dephasing outcome distribution
    (16 contractions), one contraction with random channels at the three
    intermediate slots, the seven Choi-state DPI gaps and the Markov
    factorization gap.  Lambda values are drawn from [0.02, 0.98].
    """

    name = "process-tensor"
    slots = 4
    lambda_circuits = 4
    markov_circuits = 4
    env_dim = 2

    def __init__(self, seed: int, out_dir: Path):
        self.seed = seed

    def prepare(self, k: int) -> Pass:
        rng = np.random.default_rng([self.seed, k])
        circuits = []
        for _ in range(self.lambda_circuits):
            lam = float(rng.uniform(0.02, 0.98))
            u = ref.u_lambda(lam)
            mine = ref.Circuit(ref.w_vector(), (2, 2, 2), [(u, 2)] * 3)
            program = qmonogamy.system_env_circuit(
                qmonogamy.pure_state(ref.w_vector(), (2, 2, 2)), [u] * 3)
            circuits.append(("lambda", mine, program))
        for _ in range(self.markov_circuits):
            init = ref.random_unit_vector(4, rng)
            units = [ref.haar_unitary(4, rng) for _ in range(self.slots - 1)]
            env0 = np.zeros(self.env_dim ** 3, dtype=complex)
            env0[0] = 1.0
            mine = ref.Circuit(np.kron(init, env0), (2, 2) + (self.env_dim,) * 3,
                               [(u, 2 + j) for j, u in enumerate(units)])
            program = qmonogamy.fresh_env_circuit(
                qmonogamy.pure_state(init, (2, 2)), units, self.env_dim)
            circuits.append(("markov", mine, program))
        maps = [ref.random_kraus(2, 2, rng) for _ in range(self.slots - 1)]
        return Pass(k, {"circuits": circuits, "maps": maps}, [("circuits", len(circuits))])

    def run_segment(self, p: Pass, key: str) -> None:
        results = []
        for _, _, circuit in p.inputs["circuits"]:
            try:
                pt = qmonogamy.build_process_tensor(circuit, self.slots)
                results.append({
                    "probs": qmonogamy.dephased_joint_pmf(pt).probs,
                    "state": qmonogamy.contract(pt, p.inputs["maps"]).mat,
                    "dpi": qmonogamy.choi_dpi_witnesses(pt).entries,
                    "gap": qmonogamy.markov_factorization_gap(pt),
                })
            except Exception as exc:
                results.append({"error": repr(exc)})
        p.outputs["results"] = results

    def collect(self, p: Pass) -> None:
        pass

    def check(self, p: Pass) -> int:
        failed = 0
        for (kind, mine, _), out in zip(p.inputs["circuits"], p.outputs["results"]):
            failed += not _circuit_ok(kind, mine, p.inputs["maps"], out)
        return failed


def _circuit_ok(kind: str, mine: ref.Circuit, maps: list, out: dict) -> bool:
    if "error" in out:
        return False
    probs = np.asarray(out["probs"])
    if probs.shape != (2,) * 4 or not np.all((probs >= 0.0) & (probs <= 1.0)):
        return False
    if abs(probs.sum() - 1.0) > MATCH_TOL:
        return False
    if np.abs(probs - mine.outcome_probabilities()).max() > MATCH_TOL:
        return False
    if np.abs(np.asarray(out["state"]) - mine.output_state(maps)).max() > MATCH_TOL:
        return False
    if kind == "markov":
        return out["gap"] <= MATCH_TOL and min(out["dpi"].values()) >= FLOOR
    return out["gap"] > 1e-3


WORKLOADS = {w.name: w for w in (LambdaSweeps, VerifyLadder, WideEnv, ProcessTensorWorkload)}
