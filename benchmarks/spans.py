"""Span tracer for the traced run: wraps the program's layer functions from outside.

`Tracer.install()` replaces each traced function in every qmonogamy module
namespace that holds it (so internal calls such as `witnesses.von_neumann`
are counted too), plus the `reduced` methods and the
`MarkovChainProcess.coherent_info` method, and `uninstall()` puts the
originals back.  No file of the program is edited.

Each call records a span (name, start, end, parent).  Every thread keeps
its own span stack, because `parallel_map` runs tasks on worker threads;
a task's spans hang under a `parallel_map.task` span whose parent is the
`parallel_map` span that submitted it.  Spans stay in memory until the run
ends.  A span's self time is its duration minus the union of the intervals
its child spans cover.
"""

from __future__ import annotations

import functools
import itertools
import threading
import time
from typing import Callable

import qmonogamy
from qmonogamy import (channels, classical, cli, experiments, info, linalg,
                       process_tensor, states, witnesses)

MODULES = (qmonogamy, channels, classical, cli, experiments, info, linalg,
           process_tensor, states, witnesses)


def _arg_dim(args, result) -> int:
    m = args[0]
    return int(m.dim if hasattr(m, "dim") else m.shape[0])


def _result_dim(args, result) -> int:
    return int(result.dim)


# (layer name, functions it covers, probe giving the problem dimension or None)
FUNCTIONS = (
    ("linalg.partial_trace", (linalg.partial_trace,), None),
    ("linalg.apply_two_site", (linalg.apply_two_site,), None),
    ("linalg.kron", (linalg.kron,), None),
    ("linalg.hermitian_eig", (linalg.hermitian_eig,), None),
    ("states.density", (states.density,), None),
    ("states.purify", (states.purify,), None),
    ("channels.apply", (channels.apply,), None),
    ("channels.apply_to_subsystem", (channels.apply_to_subsystem,), None),
    ("channels.kraus_channel", (channels.kraus_channel,), None),
    ("channels.random_channel", (channels.random_channel,), None),
    ("info.von_neumann", (info.von_neumann,), _arg_dim),
    ("info.chain_coherent_information", (info.chain_coherent_information,), None),
    ("witnesses.purified_circuit_state", (witnesses.purified_circuit_state,), None),
    ("witnesses.certificates", (witnesses.m4_ssa_certificate, witnesses.m6_ssa_certificates,
                                witnesses.m8_ssa_certificates), None),
    ("witnesses.witness_sets", (witnesses.qdpi_witnesses, witnesses.m4_witness,
                                witnesses.m6_witnesses, witnesses.m8_witnesses,
                                witnesses.extra_dpi_witnesses), None),
    ("process_tensor.build_process_tensor", (process_tensor.build_process_tensor,), None),
    ("process_tensor.contract", (process_tensor.contract,), None),
    ("process_tensor.port_mutual_information", (process_tensor.port_mutual_information,),
     None),
    ("process_tensor.multitime_coherent_info", (process_tensor.multitime_coherent_info,),
     None),
    ("classical.cmmi_gap", (classical.cmmi_gap,), None),
    ("classical.joint_from_chain", (classical.joint_from_chain,), None),
    ("experiments.rows", (experiments.nonmarkov_witness_row, experiments.extra_dpi_row,
                          experiments.mqmmi_row), None),
    ("experiments.random_markov_process", (experiments.random_markov_process,), None),
    ("experiments.checks", (experiments.adjoint_identity_check,
                            experiments.mi_monotonicity_check,
                            experiments.classical_cmmi_check), None),
    ("cli.main", (cli.main,), None),
)

METHODS = (
    ("states.reduced", states.DensityMatrix, "reduced", _result_dim),
    ("states.reduced", states.PureState, "reduced", _result_dim),
    ("witnesses.coherent_info", witnesses.MarkovChainProcess, "coherent_info", None),
)

PARALLEL_MAP = "experiments.parallel_map"
TASK = "experiments.parallel_map.task"

# the per-layer metrics the traced run reports, in BENCHMARK.json order
LAYER_METRICS = (
    ("linalg.partial_trace", ("calls", "self_s")),
    ("linalg.apply_two_site", ("calls", "self_s")),
    ("linalg.kron", ("calls", "self_s")),
    ("linalg.hermitian_eig", ("calls", "self_s")),
    ("states.reduced", ("calls", "self_s", "max_dim")),
    ("states.density", ("calls", "self_s")),
    ("states.purify", ("calls",)),
    ("channels.apply", ("calls",)),
    ("channels.apply_to_subsystem", ("calls", "self_s")),
    ("channels.kraus_channel", ("calls", "self_s")),
    ("channels.random_channel", ("self_s",)),
    ("info.von_neumann", ("calls", "self_s", "max_dim")),
    ("info.chain_coherent_information", ("calls", "self_s")),
    ("witnesses.coherent_info", ("calls",)),
    ("witnesses.purified_circuit_state", ("calls", "self_s")),
    ("witnesses.certificates", ("self_s",)),
    ("witnesses.witness_sets", ("self_s",)),
    ("process_tensor.build_process_tensor", ("calls", "self_s")),
    ("process_tensor.contract", ("calls", "self_s")),
    ("process_tensor.port_mutual_information", ("calls",)),
    ("process_tensor.multitime_coherent_info", ("calls", "self_s")),
    ("classical.cmmi_gap", ("calls", "self_s")),
    ("classical.joint_from_chain", ("self_s",)),
    ("experiments.rows", ("self_s",)),
    ("experiments.random_markov_process", ("self_s",)),
    ("experiments.checks", ("self_s",)),
    ("cli.main", ("self_s",)),
)
EXTRA_METRICS = ("info.eig_work", "experiments.parallel_map.wall_s",
                 "experiments.parallel_map.task_s")


class Tracer:
    """Installs span-recording wrappers and turns the spans into per-layer metrics."""

    def __init__(self) -> None:
        self.spans: list[tuple[int, str, float, float, int | None, str]] = []
        self.dims: list[tuple[str, int]] = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._saved: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, fn: Callable, name: str, probe: Callable | None,
              parent_of: Callable[[], int | None] | None = None) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            parent = stack[-1] if stack else (parent_of() if parent_of else None)
            sid = next(tracer._ids)
            stack.append(sid)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                tracer.spans.append((sid, name, t0, t1, parent,
                                     threading.current_thread().name))
            if probe is not None:
                tracer.dims.append((name, probe(args, result)))
            return result

        return traced

    def _wrap_parallel_map(self, fn: Callable) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def traced_map(task, items):
            stack = tracer._stack()
            pm_id = next(tracer._ids)
            parent = stack[-1] if stack else None
            traced_task = tracer._wrap(task, TASK, None, parent_of=lambda: pm_id)
            stack.append(pm_id)
            t0 = time.perf_counter()
            try:
                return fn(traced_task, items)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                tracer.spans.append((pm_id, PARALLEL_MAP, t0, t1, parent,
                                     threading.current_thread().name))

        return traced_map

    # -- installing --------------------------------------------------------

    def install(self) -> None:
        replacements = {}
        for name, fns, probe in FUNCTIONS:
            for fn in fns:
                replacements[id(fn)] = (fn, self._wrap(fn, name, probe))
        pm = experiments.parallel_map
        replacements[id(pm)] = (pm, self._wrap_parallel_map(pm))
        for module in MODULES:
            for attr, value in list(vars(module).items()):
                hit = replacements.get(id(value))
                if hit is not None and hit[0] is value:
                    self._set(module, attr, hit[1])
        # the sweep table holds the row functions it was built with
        for command, (row_fn, columns) in list(cli.SWEEPS.items()):
            hit = replacements.get(id(row_fn))
            if hit is not None:
                self._set_item(cli.SWEEPS, command, (hit[1], columns))
        for name, cls, attr, probe in METHODS:
            self._set(cls, attr, self._wrap(getattr(cls, attr), name, probe))

    def _set(self, owner: object, attr: str, value: object) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _set_item(self, table: dict, key: str, value: object) -> None:
        self._saved.append((table, key, table[key]))
        table[key] = value

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)
        self._saved.clear()

    # -- reporting ---------------------------------------------------------

    def layer_table(self) -> dict[str, dict[str, float]]:
        """calls, self_s and total_s per span name, plus max_dim where probed."""
        children: dict[int, list[tuple[float, float]]] = {}
        for _, _, t0, t1, parent, _ in self.spans:
            if parent is not None:
                children.setdefault(parent, []).append((t0, t1))
        table: dict[str, dict[str, float]] = {}
        for sid, name, t0, t1, _, _ in self.spans:
            row = table.setdefault(name, {"calls": 0, "self_s": 0.0, "total_s": 0.0})
            row["calls"] += 1
            row["total_s"] += t1 - t0
            row["self_s"] += (t1 - t0) - _covered(children.get(sid, ()), t0, t1)
        for name, d in self.dims:
            row = table[name]
            row["max_dim"] = max(row.get("max_dim", 0), d)
        return table

    def metrics(self) -> dict[str, float]:
        table = self.layer_table()
        out: dict[str, float] = {}
        for name, kinds in LAYER_METRICS:
            row = table.get(name, {})
            for kind in kinds:
                out[f"{name}.{kind}"] = row.get(kind, 0)
        out["info.eig_work"] = sum(d ** 3 for n, d in self.dims if n == "info.von_neumann")
        out["experiments.parallel_map.wall_s"] = table.get(PARALLEL_MAP, {}).get("total_s", 0.0)
        out["experiments.parallel_map.task_s"] = table.get(TASK, {}).get("total_s", 0.0)
        return out


def _covered(intervals, t0: float, t1: float) -> float:
    """Length of the union of `intervals`, clipped to [t0, t1]."""
    total = 0.0
    end = t0
    for a, b in sorted(intervals):
        a, b = max(a, end), min(b, t1)
        if b > a:
            total += b - a
            end = b
    return total
