"""Calibration child: a fixed numpy computation timed in turns with the workload.

The calibration pass is made of the same kinds of operation the workloads
spend their time on: a Python-level loop of small Hermitian eigensolves,
Kronecker products and einsum partial traces, then a few mid-size
eigensolves that go through the threaded BLAS.  Counting the workload's
time in units of this pass's duration cancels most of what a shared
machine does to both, so the calibrated metrics move with the program and
not with the neighbours.

The pass never changes: a changed pass would make every calibrated figure
incomparable with earlier runs.  This process never imports qmonogamy, so
no change to the program (a thread setting made at import, say) can move
the calibration.

Protocol: one JSON line per request on stdin ({"cmd": "run"} or
{"cmd": "exit"}), one JSON line per reply on stdout.  The first line
written is {"ready": true}, after one untimed warm-up pass.
"""

from __future__ import annotations

import json
import sys
import time

import numpy as np

SMALL_LOOP = 2000
MID_SIZES = (128, 256, 512, 512)


def _hermitian(d: int, rng: np.random.Generator) -> np.ndarray:
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return g @ g.conj().T / d


def calibration_inputs() -> dict:
    """The fixed matrices every pass works on, made once per process."""
    rng = np.random.default_rng(2108_11533)
    return {
        "small": [_hermitian(d, rng) for d in (2, 4, 8)],
        "pair": _hermitian(2, rng),
        "mid": [_hermitian(d, rng) for d in MID_SIZES],
    }


def calibration_pass(inputs: dict) -> float:
    """Run the fixed computation once; return a checksum of its results."""
    small, pair = inputs["small"], inputs["pair"]
    total = 0.0
    for i in range(SMALL_LOOP):
        w = np.linalg.eigvalsh(small[i % 3])
        big = np.kron(pair, small[1])
        traced = np.einsum("abac->bc", big.reshape(2, 4, 2, 4))
        total += float(w[-1]) + float(traced[0, 0].real) * 1e-3
    for m in inputs["mid"]:
        total += float(np.linalg.eigvalsh(m)[-1])
        block = m[:16, :16]
        t = np.einsum("ijkl->ik", np.kron(block, block).reshape(16, 16, 16, 16))
        total += float(np.trace(t).real) * 1e-6
    return total


def main() -> int:
    out = sys.stdout
    inputs = calibration_inputs()
    calibration_pass(inputs)
    out.write(json.dumps({"ready": True}) + "\n")
    out.flush()
    for line in sys.stdin:
        cmd = json.loads(line)["cmd"]
        if cmd == "exit":
            break
        if cmd != "run":
            out.write(json.dumps({"error": f"unknown request {cmd!r}"}) + "\n")
            out.flush()
            continue
        t0 = time.perf_counter()
        checksum = calibration_pass(inputs)
        wall = time.perf_counter() - t0
        out.write(json.dumps({"wall": wall, "checksum": checksum}) + "\n")
        out.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
