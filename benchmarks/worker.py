"""Workload process: a fresh interpreter that imports the program and runs one workload.

Started by run.py with `--workload NAME --seed N --out-dir DIR [--trace]`.
It imports qmonogamy from the checkout's `src/` (and refuses any other
copy), builds the warm-up pass's inputs and then reports {"ready": true};
the time from process start to that line is the workload's set-up time.

Requests arrive as JSON lines on stdin:

  {"cmd": "warmup"}                              untimed warm-up pass
  {"cmd": "segment", "k": K, "j": J, "traced": B}
      timed segment J of pass K (traced when B); segment 0 first builds
      the pass's inputs, the last segment then reads its outputs back
  {"cmd": "finish"}                              peak memory, then all checks
  {"cmd": "exit"}

Replies are JSON lines on the original stdout; anything else the program
prints is sent to stderr so it cannot corrupt the protocol.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out-dir", required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()

    proto = os.fdopen(os.dup(1), "w", buffering=1, encoding="utf-8")
    os.dup2(2, 1)

    def send(msg: dict) -> None:
        proto.write(json.dumps(msg) + "\n")

    sys.path.insert(0, str(SRC))
    try:
        import qmonogamy
    except ImportError as exc:
        send({"error": f"cannot import qmonogamy from {SRC}: {exc}"})
        return 3
    if not Path(qmonogamy.__file__).resolve().is_relative_to(SRC.resolve()):
        send({"error": f"qmonogamy imported from {qmonogamy.__file__}, not from {SRC}"})
        return 3

    from workloads import WORKLOADS, run_pass

    out_dir = Path(args.out_dir)
    workload = WORKLOADS[args.workload](args.seed, out_dir)
    tracer = None
    if args.trace:
        from spans import Tracer
        tracer = Tracer()
    warm = workload.prepare(0)
    send({"ready": True})

    passes = []
    current = None
    for line in sys.stdin:
        request = json.loads(line)
        cmd = request["cmd"]
        if cmd == "exit":
            break
        if cmd == "warmup":
            t0 = time.perf_counter()
            run_pass(workload, warm)
            send({"items": warm.items, "wall": (time.perf_counter() - t0) / len(warm.segments)})
        elif cmd == "segment":
            if request["j"] == 0:
                current = workload.prepare(request["k"])
            key, items = current.segments[request["j"]]
            traced = bool(request.get("traced")) and tracer is not None
            if traced:
                tracer.install()
            c0 = time.process_time()
            t0 = time.perf_counter()
            try:
                workload.run_segment(current, key)
            finally:
                t1 = time.perf_counter()
                c1 = time.process_time()
                if traced:
                    tracer.uninstall()
            last = request["j"] == len(current.segments) - 1
            if last:
                workload.collect(current)
                passes.append(current)
            send({"items": items, "wall": t1 - t0, "cpu": c1 - c0, "last": last})
        elif cmd == "finish":
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            failures = [workload.check(p) for p in passes]
            reply = {"attempted": sum(p.items for p in passes), "failed": sum(failures),
                     "failed_passes": [p.k for p, f in zip(passes, failures) if f],
                     "peak_rss_mb": peak_rss_mb}
            if tracer is not None:
                reply["layers"] = tracer.metrics()
                reply["table"] = tracer.layer_table()
                spans_path = out_dir.parent / f"trace-{args.workload}-seed{args.seed}.json"
                with open(spans_path, "w", encoding="utf-8") as fh:
                    json.dump({"workload": args.workload, "seed": args.seed,
                               "fields": ["id", "name", "start", "end", "parent", "thread"],
                               "spans": tracer.spans}, fh)
                reply["spans_file"] = str(spans_path.relative_to(ROOT))
            send(reply)
        else:
            send({"error": f"unknown request {cmd!r}"})
    return 0


if __name__ == "__main__":
    sys.exit(main())
