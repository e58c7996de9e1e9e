"""qmonogamy benchmark: one workload per run, every output checked.

Usage, from the root of a checkout:

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: lambda-sweeps, verify-ladder, wide-env, process-tensor (see
workloads.py and README.md).  The last line of stdout is one JSON object
with the keys correct, attempted, failed and metrics.

Untraced runs (--trace 0) report the end-to-end metrics.  The workload
runs in a fresh interpreter (worker.py) and a calibration child
(calibrate.py, which never imports the program) runs a fixed computation
before and after every timed segment of the workload, so that only one of
the two computes at any moment and each segment's time can be counted in
units of the calibration passes around it.  Set-up time is measured on
several fresh interpreters and reported as their median; the last one runs
the workload.  After an untimed warm-up pass, whole passes run until
--seconds have elapsed (at least two passes).

Traced runs (--trace 1) report the per-layer metrics over a fixed number
of traced passes on fixed inputs, so that counts repeat exactly whatever
the machine's speed and the seed; each traced pass is paired with an
untraced pass of the same size, and the ratio of their times gives the
tracing overhead.

The program runs as shipped: this script sets no thread variable.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_out"

WORKLOADS = ("lambda-sweeps", "verify-ladder", "wide-env", "process-tensor")
SETUP_SPAWNS = 5
MIN_PASSES = 2
CAL_SHARE = 0.1
# Traced runs work on the same inputs whatever --seed says: the side checks
# of `verify` draw random Kraus counts, so some call counts depend on the
# inputs, and fixed inputs make every count repeat exactly across runs.
TRACE_SEED = 0
# untraced/traced pass pairs per traced run, sized to a few seconds of work
TRACE_PAIRS = {"lambda-sweeps": 2, "verify-ladder": 2, "wide-env": 2, "process-tensor": 3}
DEADLINE_S = 150  # leaves time to stop the children within 180 s
CHECKSUM_RTOL = 1e-9

END_TO_END_UNITS = {"items_per_s": "1/s", "items_per_cal": "1/cal", "cpu_cal_per_item": "cal",
                    "peak_rss_mb": "MB", "setup_s": "s"}


class ChildError(RuntimeError):
    pass


class Child:
    """A helper process spoken to in JSON lines."""

    def __init__(self, name: str, argv: list[str]):
        self.name = name
        self.proc = subprocess.Popen(argv, cwd=ROOT, stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE, text=True, bufsize=1)

    def receive(self) -> dict:
        line = self.proc.stdout.readline()
        if not line:
            raise ChildError(f"{self.name} exited with code {self.proc.wait()}")
        reply = json.loads(line)
        if "error" in reply:
            raise ChildError(f"{self.name}: {reply['error']}")
        return reply

    def request(self, msg: dict) -> dict:
        self.proc.stdin.write(json.dumps(msg) + "\n")
        self.proc.stdin.flush()
        return self.receive()

    def close(self) -> None:
        if self.proc.poll() is None:
            try:
                self.proc.stdin.write('{"cmd": "exit"}\n')
                self.proc.stdin.close()
                self.proc.wait(timeout=10)
            except (OSError, subprocess.TimeoutExpired):
                self.proc.kill()
        self.proc.wait()
        self.proc.stdout.close()


def _worker_argv(args: argparse.Namespace, out_dir: Path, trace: bool) -> list[str]:
    seed = TRACE_SEED if trace else args.seed
    argv = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
            "--seed", str(seed), "--out-dir", str(out_dir)]
    return argv + ["--trace"] if trace else argv


def _pass_segments(worker: Child, k: int, traced: bool):
    """Run pass k segment by segment, yielding each segment's timing."""
    j = 0
    while True:
        reply = worker.request({"cmd": "segment", "k": k, "j": j, "traced": traced})
        yield {"k": k, "j": j, "items": reply["items"], "wall": reply["wall"],
               "cpu": reply["cpu"]}
        if reply["last"]:
            return
        j += 1


def run_untraced(args: argparse.Namespace, out_dir: Path,
                 children: list[Child]) -> tuple[dict, dict]:
    cal = Child("calibration", [sys.executable, str(HERE / "calibrate.py")])
    children.append(cal)
    cal.receive()
    setup = []
    worker = None
    for i in range(SETUP_SPAWNS):
        t0 = time.perf_counter()
        worker = Child("worker", _worker_argv(args, out_dir, trace=False))
        children.append(worker)
        worker.receive()
        setup.append(time.perf_counter() - t0)
        if i < SETUP_SPAWNS - 1:
            worker.close()
    warm = worker.request({"cmd": "warmup"})

    cals = []

    def calibrate(after_s: float) -> float:
        # enough calibration passes to fill CAL_SHARE of the segment they
        # follow, so a long segment is not judged by one short pass
        walls = []
        while not walls or sum(walls) < CAL_SHARE * after_s:
            reply = cal.request({"cmd": "run"})
            cals.append(reply)
            walls.append(reply["wall"])
        return statistics.median(walls)

    before = calibrate(warm["wall"])
    segments = []
    start = time.perf_counter()
    k = 1
    while True:
        for seg in _pass_segments(worker, k, traced=False):
            after = calibrate(seg["wall"])
            seg["cal"] = (before + after) / 2.0
            before = after
            segments.append(seg)
        k += 1
        if time.perf_counter() - start >= args.seconds and k > MIN_PASSES:
            break
    fin = worker.request({"cmd": "finish"})

    checksum = cals[0]["checksum"]
    correct = all(abs(c["checksum"] - checksum) <= CHECKSUM_RTOL * abs(checksum) for c in cals)
    for seg in segments:
        print(f"pass {seg['k']} segment {seg['j']}: {seg['items']} items in {seg['wall']:.4f} s"
              f" (cpu {seg['cpu']:.4f} s), calibration {seg['cal']:.4f} s")
    print(f"setup: {', '.join(f'{s:.4f}' for s in setup)} s")
    if fin["failed"]:
        print(f"failed checks in passes {fin['failed_passes']}")
    # each segment's time is counted in units of the calibration passes run
    # right before and after it, so slow and fast spells of a shared machine
    # weigh on both sides of the ratio alike
    items = sum(seg["items"] for seg in segments)
    values = {
        "items_per_s": items / sum(seg["wall"] for seg in segments),
        "items_per_cal": items / sum(seg["wall"] / seg["cal"] for seg in segments),
        "cpu_cal_per_item": sum(seg["cpu"] / seg["cal"] for seg in segments) / items,
        "peak_rss_mb": fin["peak_rss_mb"],
        "setup_s": statistics.median(setup),
    }
    metrics = {name: {"value": v, "unit": END_TO_END_UNITS[name]} for name, v in values.items()}
    raw = {"segments": segments, "calibrations": [c["wall"] for c in cals], "setup": setup}
    return {"correct": correct, "attempted": fin["attempted"], "failed": fin["failed"],
            "metrics": metrics}, raw


def _layer_unit(name: str) -> str:
    kind = name.rsplit(".", 1)[-1]
    return {"calls": "count", "max_dim": "dim", "eig_work": "d3",
            "overhead": "ratio"}.get(kind, "s")


def run_traced(args: argparse.Namespace, out_dir: Path,
               children: list[Child]) -> tuple[dict, dict]:
    worker = Child("worker", _worker_argv(args, out_dir, trace=True))
    children.append(worker)
    worker.receive()
    worker.request({"cmd": "warmup"})
    per_item = {False: [], True: []}
    k = 1
    for i in range(TRACE_PAIRS[args.workload]):
        # alternate the order within pairs so a drift in speed cancels
        for traced in ((False, True) if i % 2 == 0 else (True, False)):
            segs = list(_pass_segments(worker, k, traced))
            per_item[traced].append(sum(s["wall"] for s in segs) / sum(s["items"] for s in segs))
            k += 1
    fin = worker.request({"cmd": "finish"})
    overhead = statistics.median(per_item[True]) / statistics.median(per_item[False]) - 1.0

    table = fin["table"]
    print(f"{'span':44s} {'calls':>9s} {'self_s':>10s} {'total_s':>10s}")
    for name, row in sorted(table.items(), key=lambda kv: -kv[1]["self_s"]):
        print(f"{name:44s} {row['calls']:9d} {row['self_s']:10.4f} {row['total_s']:10.4f}")
    print(f"tracing overhead: {overhead:+.3f} of the untraced time per item")
    print(f"spans written to {fin['spans_file']}")
    values = dict(fin["layers"])
    values["trace.overhead"] = overhead
    metrics = {name: {"value": v, "unit": _layer_unit(name)} for name, v in values.items()}
    raw = {"per_item": {"untraced": per_item[False], "traced": per_item[True]}}
    return {"correct": True, "attempted": fin["attempted"], "failed": fin["failed"],
            "metrics": metrics}, raw


def _deadline(signum, frame):
    raise TimeoutError(f"benchmark exceeded {DEADLINE_S} s")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "qmonogamy" / "__init__.py").is_file():
        print(f"error: no qmonogamy sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    out_dir = OUT / f"{args.workload}-{os.getpid()}"
    out_dir.mkdir(parents=True, exist_ok=True)
    children: list[Child] = []
    signal.signal(signal.SIGALRM, _deadline)
    signal.alarm(DEADLINE_S)
    try:
        run = run_traced if args.trace else run_untraced
        result, raw = run(args, out_dir, children)
    except (ChildError, TimeoutError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        signal.alarm(0)
        for child in children:
            child.close()
        shutil.rmtree(out_dir, ignore_errors=True)

    line = json.dumps(result)
    result_path = OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    result_path.write_text(json.dumps({"result": result, "raw": raw}) + "\n", encoding="utf-8")
    print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
