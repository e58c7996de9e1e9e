"""Source hygiene of the package, mostly read with the stdlib `ast` module.

* Every threshold below 1e-6 is a named entry of tolerances.py, so no
  other module may hold a nonzero numeric literal that small.
* No module imports a name it never uses (`__init__.py` re-exports, so it
  is exempt).
* Every entry of tolerances.py is read by another module (a re-export in
  `__init__.py` does not count), so a dead threshold cannot linger.
* Every name in a module's `__all__` resolves on the imported module, and
  `from qmonogamy import *` succeeds, so a deleted name cannot stay exported.
* No module reads the environment (`os.environ`, `getenv`) or imports
  `ctypes`, so the package sets no BLAS thread count and reads no variable.
* The benchmark's span tracer (benchmarks/spans.py) finds every name it
  wraps and puts each one back, and every `qmonogamy.<name>` the
  benchmark's workloads reach exists, so a deleted name that the
  benchmark still uses fails here.
* Every entry of tolerances.py has a comment above it that gives a
  reason, not a note that the reason is missing.
* `qmonogamy.__all__` holds what the CLI, the demos, the acceptance suite
  and the benchmark's workloads reach, plus the independent references
  the tests compare the package with (REFERENCES), and every name those
  callers take from the top level is exported.
* The transfer matrix sum_k K_k (x) conj(K_k) of a Kraus list is written
  once, in linalg.transfer_matrix, so apply_kraus and the bond table act
  every channel through the same matrix.
* numpy's kron is reached only inside linalg.kron: register operators are
  built by the register simulator, not embedded by hand.
* numpy's eigvalsh is reached only inside states._spectra, the one
  Hermitian spectrum (qubits in closed form) that von_neumann_stack and
  density_stack share.
* The bool-excluding integer test, `isinstance(x, bool)`, is written once,
  in linalg._is_int, which every integer check calls.
* Subsystem dimensions are read with `int(...)` only in linalg._dims,
  which refuses a non-integer by name instead of truncating it.
* Register labels are resolved to positions (`labels.index(...)`) only in
  PureState._axes, the one resolver every register reader goes through.
* Subsystem positions are range-checked (`0 <= i < n`, or `i < 0 or
  i >= n`) only in linalg._positions, the one resolver every state kind's
  `_cut`, partial_trace and apply_kraus go through, and info.py switches
  on no state kind with `isinstance`: each kind resolves its own cuts.
* classical.py sums a Shannon entropy (`spectrum_entropy(...)`) only in
  JointPMF._entropies, and experiments.py imports no other Shannon reader
  from it, so the classical check reads its gaps through cmmi_gap, whose
  pair entropies come from JointPMF.entropies.
* The register kernel linalg._apply_registers is called only in
  apply_two_site and PureState._apply, and the amplitude budget
  states._check_budget only in PureState._apply and splice: every
  register operation of the package goes through the one register core.
* process_tensor._slot_step, the one step out of a slot with or without
  a map, is called only by the tensor state's builder (the `state`
  property), the forward runner _run_forward and contract, and
  _run_forward only by the two interventional readers, the port reader
  and the two-time table.
* In process_tensor.py the tensor state (`.state`) is read only by
  markov_factorization_gap and dephased_joint_pmf, the two reads of the
  whole Choi state, so every other read keeps to its forward run's budget.
"""

import ast
import importlib
import importlib.util
import re
import types
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "qmonogamy"
BENCHMARKS = ROOT / "benchmarks"
MODULES = sorted(PACKAGE.glob("*.py"))


def _tree(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def test_the_package_is_found():
    names = {p.name for p in MODULES}
    assert {"tolerances.py", "channels.py", "states.py"} <= names


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "tolerances.py"],
                         ids=lambda p: p.name)
def test_small_literals_live_in_the_tolerance_table(path):
    small = [(node.lineno, node.value) for node in ast.walk(_tree(path))
             if isinstance(node, ast.Constant) and type(node.value) in (int, float, complex)
             and 0 < abs(node.value) < 1e-6]
    assert not small, f"{path.name}: literals {small} belong in tolerances.py"


def test_the_tolerance_table_imports_nothing():
    tree = _tree(PACKAGE / "tolerances.py")
    assert not [n for n in ast.walk(tree) if isinstance(n, (ast.Import, ast.ImportFrom))]


def _unused_from_imports(tree: ast.Module) -> list[str]:
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    exported = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            exported = {e.value for e in node.value.elts}
    return sorted(f"{name} (line {line})" for name, line in imported.items()
                  if name not in used and name not in exported)


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "__init__.py"],
                         ids=lambda p: p.name)
def test_no_unused_from_imports(path):
    unused = _unused_from_imports(_tree(path))
    assert not unused, f"{path.name} imports but never uses {unused}"


def test_the_unused_import_scan_sees_a_leftover():
    tree = ast.parse("from .linalg import dagger, kron\n\ndef f(m):\n    return dagger(m)\n")
    assert _unused_from_imports(tree) == ["kron (line 1)"]


def _unread_tolerances(table: ast.Module, modules: list[ast.Module]) -> list[str]:
    names = {t.id for node in table.body if isinstance(node, ast.Assign)
             for t in node.targets if isinstance(t, ast.Name)}
    read = set()
    for tree in modules:
        read |= {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        read |= {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)}
    return sorted(names - read)


def test_every_tolerance_is_read():
    readers = [_tree(p) for p in MODULES if p.name not in ("tolerances.py", "__init__.py")]
    unread = _unread_tolerances(_tree(PACKAGE / "tolerances.py"), readers)
    assert not unread, f"tolerances.py entries no module reads: {unread}"


def test_the_unread_tolerance_scan_sees_a_dead_entry():
    table = ast.parse("# reason\nUSED_TOL = 1e-9\n# reason\nDEAD_TOL = 1e-8\n")
    reader = ast.parse("from .tolerances import USED_TOL\n\ndef f(x):\n"
                       "    return x > USED_TOL\n")
    assert _unread_tolerances(table, [reader]) == ["DEAD_TOL"]


def _unresolved_exports(module: types.ModuleType) -> list[str]:
    return sorted(name for name in getattr(module, "__all__", ()) if not hasattr(module, name))


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_export_resolves(path):
    name = "qmonogamy" if path.name == "__init__.py" else f"qmonogamy.{path.stem}"
    module = importlib.import_module(name)
    missing = _unresolved_exports(module)
    assert not missing, f"{path.name} exports names it does not define: {missing}"


def test_the_star_import_succeeds():
    namespace = {}
    exec("from qmonogamy import *", namespace)
    assert "build_process_tensor" in namespace


def test_the_export_scan_sees_a_stale_name():
    module = types.ModuleType("planted")
    module.__all__ = ["kept", "deleted"]
    module.kept = object()
    assert _unresolved_exports(module) == ["deleted"]


ENVIRONMENT = ("environ", "environb", "getenv")


def _environment_reads(tree: ast.Module) -> list[str]:
    found = []
    for node in ast.walk(tree):
        names = []
        if isinstance(node, ast.Attribute):
            names = [node.attr]
        elif isinstance(node, ast.Name):
            names = [node.id]
        elif isinstance(node, ast.Import):
            names = [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [node.module or ""] + [a.name for a in node.names]
        found += [f"{name} (line {node.lineno})" for name in names
                  if name in ENVIRONMENT or name.split(".")[0] == "ctypes"]
    return sorted(found)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_module_reads_the_environment(path):
    found = _environment_reads(_tree(path))
    assert not found, f"{path.name} reads the environment or loads ctypes: {found}"


def test_the_environment_scan_sees_each_form():
    tree = ast.parse("import os\nimport ctypes.util\nfrom os import getenv\n"
                     "from ctypes import CDLL\n\ndef f():\n"
                     "    return os.environ.get('X'), os.getenv('Y')\n")
    assert _environment_reads(tree) == [
        "ctypes (line 4)", "ctypes.util (line 2)", "environ (line 7)", "getenv (line 3)",
        "getenv (line 7)"]


def _load_spans() -> types.ModuleType:
    """benchmarks/spans.py, loaded by path under a name of its own; building
    its tables fails with AttributeError when a name it wraps is gone."""
    spec = importlib.util.spec_from_file_location("benchmark_spans", BENCHMARKS / "spans.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _traced_bindings(spans: types.ModuleType) -> dict:
    """Everything the tracer may replace: each module namespace entry, each
    traced method and each sweep-table entry, keyed by where it lives."""
    out = {(m.__name__, attr): value for m in spans.MODULES for attr, value in vars(m).items()}
    out.update({(cls.__name__, attr): cls.__dict__[attr] for _, cls, attr, _ in spans.METHODS})
    out.update({("SWEEPS", key): value for key, value in spans.cli.SWEEPS.items()})
    return out


def test_the_benchmark_tracer_wraps_and_restores_every_name():
    spans = _load_spans()
    before = _traced_bindings(spans)
    tracer = spans.Tracer()
    tracer.install()
    try:
        during = _traced_bindings(spans)
    finally:
        tracer.uninstall()
    after = _traced_bindings(spans)
    # every traced function is replaced where it is defined
    for _, fns, _ in spans.FUNCTIONS:
        for fn in fns:
            home = importlib.import_module(fn.__module__)
            assert during[(home.__name__, fn.__name__)] is not fn, fn.__qualname__
    for _, cls, attr, _ in spans.METHODS:
        assert during[(cls.__name__, attr)] is not before[(cls.__name__, attr)], attr
    assert after.keys() == before.keys()
    moved = [key for key, value in before.items() if after[key] is not value]
    assert not moved, f"the tracer left these replaced: {moved}"


def _workload_names(tree: ast.Module) -> set[str]:
    """The names the benchmark's workloads read off the package: `qmonogamy.x`."""
    return {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name) and node.value.id == "qmonogamy"}


def test_the_benchmark_workloads_reach_only_existing_names():
    qmonogamy = importlib.import_module("qmonogamy")
    names = _workload_names(_tree(BENCHMARKS / "workloads.py"))
    assert "random_markov_verify" in names
    missing = sorted(name for name in names if not hasattr(qmonogamy, name))
    assert not missing, f"benchmarks/workloads.py reaches deleted names: {missing}"


def test_the_workload_name_scan_sees_a_deleted_name():
    tree = ast.parse("import qmonogamy\n\ndef f(p):\n    return qmonogamy.gone(p)\n")
    assert _workload_names(tree) == {"gone"}


# a comment that says its reason is missing is not a reason
MISSING_REASON = re.compile(r"not recorded|unrecorded|unexplained|no own reason", re.I)


def _unreasoned_tolerances(source: str) -> list[str]:
    """Entries of a tolerance table whose comment block (the `#` lines right
    above the assignment) is empty or says that the reason is missing."""
    lines = source.splitlines()
    out = []
    for node in ast.parse(source).body:
        if not isinstance(node, ast.Assign):
            continue
        above, i = [], node.lineno - 2
        while i >= 0 and lines[i].lstrip().startswith("#"):
            above.append(lines[i])
            i -= 1
        if not above or MISSING_REASON.search(" ".join(above)):
            out += [t.id for t in node.targets if isinstance(t, ast.Name)]
    return out


def test_every_tolerance_gives_a_reason():
    source = (PACKAGE / "tolerances.py").read_text(encoding="utf-8")
    unreasoned = _unreasoned_tolerances(source)
    assert not unreasoned, f"tolerances.py entries without a stated reason: {unreasoned}"


def test_the_reason_scan_sees_a_missing_reason():
    source = ("# measured worst 2e-15\nGOOD_TOL = 1e-10\nBARE_TOL = 1e-9\n"
              "# why it is this tight is not recorded\nLAME_TOL = 1e-12\n")
    assert _unreasoned_tolerances(source) == ["BARE_TOL", "LAME_TOL"]


# the modules whose use of the package fixes its public surface
CALLERS = (PACKAGE / "cli.py", *sorted((ROOT / "demos").glob("*.py")),
           ROOT / "tests" / "test_acceptance.py", BENCHMARKS / "workloads.py")
# exported although no caller above reaches them: the independent references
# (Kraus propagation, the purified circuit, the one-item rows and the
# per-sample gaps) that the tests compare the package's stacked paths with
REFERENCES = ("chain_coherent_information", "purified_circuit_state",
              "nonmarkov_witness_row", "extra_dpi_row", "mqmmi_row",
              "cqmi_monotonicity_gap", "mi_dpi_gap", "cmmi_gap")


def _taken_names(tree: ast.Module) -> set[str]:
    """Names a caller takes from the package: `from qmonogamy import x`,
    `qmonogamy.x` and, inside the package, `from .module import x`."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (
                node.module == "qmonogamy" or (node.level == 1 and node.module)):
            out |= {a.name for a in node.names}
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) \
                and node.value.id == "qmonogamy":
            out.add(node.attr)
    return out


def test_every_export_is_reached_by_a_caller_or_is_a_reference():
    qmonogamy = importlib.import_module("qmonogamy")
    reached = set().union(*(_taken_names(_tree(p)) for p in CALLERS))
    unreached = sorted(set(qmonogamy.__all__) - reached - set(REFERENCES))
    assert not unreached, f"qmonogamy exports names no caller reaches: {unreached}"
    assert set(REFERENCES) <= set(qmonogamy.__all__)


@pytest.mark.parametrize("path", [p for p in CALLERS if p.parent != PACKAGE],
                         ids=lambda p: p.name)
def test_every_top_level_name_a_caller_takes_is_exported(path):
    qmonogamy = importlib.import_module("qmonogamy")
    taken = {name for name in _taken_names(_tree(path))
             if not isinstance(getattr(qmonogamy, name, None), types.ModuleType)}
    hidden = sorted(taken - set(qmonogamy.__all__))
    assert not hidden, f"{path.name} takes names qmonogamy does not export: {hidden}"


def test_the_taken_name_scan_sees_each_form():
    tree = ast.parse("import qmonogamy\nfrom qmonogamy import a, b as c\n"
                     "from .experiments import d\nfrom . import e\n\n"
                     "def f():\n    return qmonogamy.g\n")
    assert _taken_names(tree) == {"a", "b", "d", "g"}


def _transfer_einsums(tree: ast.Module) -> list[str]:
    """The functions holding an einsum of X and conj(X) that sums one index
    and keeps every other: sum_k K_k (x) conj(K_k), in whatever letters."""
    found = []
    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for node in ast.walk(fn):
            if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "einsum" and len(node.args) == 3
                    and isinstance(node.args[0], ast.Constant)
                    and isinstance(node.args[0].value, str)):
                continue
            spec, a, b = node.args
            # b is a.conj() or np.conj(a)
            if not (isinstance(b, ast.Call) and isinstance(b.func, ast.Attribute)
                    and b.func.attr in ("conj", "conjugate")
                    and ast.dump(b.args[0] if b.args else b.func.value) == ast.dump(a)):
                continue
            inputs, _, out = spec.value.replace("...", "").partition("->")
            left, _, right = inputs.partition(",")
            summed = (set(left) | set(right)) - set(out)
            if len(summed) == 1 and summed <= set(left) & set(right):
                found.append(f"{fn.name} (line {node.lineno})")
    return found


def test_the_transfer_matrix_is_written_once():
    found = {path.name: _transfer_einsums(_tree(path)) for path in MODULES}
    found = {name: fns for name, fns in found.items() if fns}
    assert list(found) == ["linalg.py"], found
    assert [f.split()[0] for f in found["linalg.py"]] == ["transfer_matrix"]


def test_the_transfer_scan_sees_a_second_copy():
    tree = ast.parse(
        "import numpy as np\n\n"
        "def transfer_matrix(kraus):\n"
        "    return np.einsum('...koi,...kpj->...opij', kraus, kraus.conj())\n\n"
        "def bond_step(ops, joint):\n"
        "    t = np.einsum('nkab,nkcd->nacbd', ops, np.conj(ops))\n"
        "    return t @ joint\n\n"
        "def unitality(adj):\n"
        "    return np.einsum('bkij,bklj->bil', adj, adj.conj())\n")
    assert _transfer_einsums(tree) == ["transfer_matrix (line 4)", "bond_step (line 7)"]


def _enclosing(tree: ast.Module, match) -> list[str]:
    """'<function> (line n)' for every node that `match`es, named by the
    innermost function around it ('<module>' outside any), in source order."""
    found = []

    def visit(node: ast.AST, where: str) -> None:
        for child in ast.iter_child_nodes(node):
            if match(child):
                found.append(f"{where} (line {child.lineno})")
            inner = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
            visit(child, child.name if inner else where)

    visit(tree, "<module>")
    return found


def _is_numpy_kron(node: ast.AST) -> bool:
    # np.kron / numpy.kron, or kron imported from numpy
    return (isinstance(node, ast.Attribute) and node.attr == "kron"
            and isinstance(node.value, ast.Name) and node.value.id in ("np", "numpy")) or (
        isinstance(node, ast.ImportFrom) and node.module == "numpy"
        and any(a.name == "kron" for a in node.names))


def test_numpy_kron_is_reached_only_inside_linalg_kron():
    found = {path.name: _enclosing(_tree(path), _is_numpy_kron) for path in MODULES}
    found = {name: uses for name, uses in found.items() if uses}
    assert list(found) == ["linalg.py"], found
    assert [use.split()[0] for use in found["linalg.py"]] == ["kron"]


def test_the_kron_scan_sees_a_second_copy():
    tree = ast.parse(
        "import numpy as np\nfrom numpy import eye, kron as k\n\n"
        "def kron(a, b):\n    return np.kron(a, b)\n\n"
        "def embed(u, n):\n    return numpy.kron(u, np.eye(n))\n\n"
        "E0 = np.kron([1, 0], [1, 0])\n")
    assert _enclosing(tree, _is_numpy_kron) == [
        "<module> (line 2)", "kron (line 5)", "embed (line 8)", "<module> (line 10)"]


def _is_eigvalsh(node: ast.AST) -> bool:
    # np.linalg.eigvalsh or any other `<module>.eigvalsh`, or eigvalsh imported by name
    return (isinstance(node, ast.Attribute) and node.attr == "eigvalsh") or (
        isinstance(node, ast.ImportFrom) and any(a.name == "eigvalsh" for a in node.names))


def test_eigvalsh_is_reached_only_inside_the_one_spectra_helper():
    found = {path.name: _enclosing(_tree(path), _is_eigvalsh) for path in MODULES}
    found = {name: uses for name, uses in found.items() if uses}
    assert list(found) == ["states.py"], found
    assert [use.split()[0] for use in found["states.py"]] == ["_spectra"]


def test_the_eigvalsh_scan_sees_a_second_copy():
    tree = ast.parse(
        "import numpy as np\nfrom numpy.linalg import eigh, eigvalsh as ev\n\n"
        "def _spectra(h):\n    return np.linalg.eigvalsh(h)\n\n"
        "def entropy(m):\n    return numpy.linalg.eigvalsh(m).sum()\n\n"
        "W = np.linalg.eigh(np.eye(2))\n")
    assert _enclosing(tree, _is_eigvalsh) == [
        "<module> (line 2)", "_spectra (line 5)", "entropy (line 8)"]


def _is_bool_test(node: ast.AST) -> bool:
    # isinstance(x, bool) or isinstance(x, (..., bool, ...))
    if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id == "isinstance" and len(node.args) == 2):
        return False
    kinds = node.args[1].elts if isinstance(node.args[1], ast.Tuple) else [node.args[1]]
    return any(isinstance(k, ast.Name) and k.id == "bool" for k in kinds)


def test_the_integer_test_is_written_once():
    found = {path.name: _enclosing(_tree(path), _is_bool_test) for path in MODULES}
    found = {name: uses for name, uses in found.items() if uses}
    assert list(found) == ["linalg.py"], found
    assert [use.split()[0] for use in found["linalg.py"]] == ["_is_int"]


def _mentions_dims(node: ast.AST) -> bool:
    return any(isinstance(n, ast.Name) and n.id == "dims"
               or isinstance(n, ast.Attribute) and n.attr == "dims" for n in ast.walk(node))


def _int_reads_dims(node: ast.AST) -> bool:
    # int(<dims ...>), int(x) for x in <dims ...>, or map(int, <dims ...>)
    def is_int(f: ast.AST) -> bool:
        return isinstance(f, ast.Name) and f.id == "int"

    if isinstance(node, (ast.GeneratorExp, ast.ListComp, ast.SetComp)):
        return (isinstance(node.elt, ast.Call) and is_int(node.elt.func)
                and any(_mentions_dims(g.iter) for g in node.generators))
    if not isinstance(node, ast.Call):
        return False
    if is_int(node.func):
        return any(_mentions_dims(a) for a in node.args)
    return (isinstance(node.func, ast.Name) and node.func.id == "map" and len(node.args) == 2
            and is_int(node.args[0]) and _mentions_dims(node.args[1]))


def test_dimensions_are_read_as_integers_only_in_linalg_dims():
    found = {path.name: _enclosing(_tree(path), _int_reads_dims) for path in MODULES}
    found = {name: uses for name, uses in found.items() if uses}
    assert list(found) == ["linalg.py"], found
    assert [use.split()[0] for use in found["linalg.py"]] == ["_dims"]


def test_the_dimension_scan_sees_a_second_copy():
    tree = ast.parse(
        "def _dims(dims):\n    return tuple(int(d) for d in dims)\n\n"
        "def trace(m, dims):\n    return list(map(int, dims))\n\n"
        "def size(rho):\n    return int(rho.dims[0])\n\n"
        "def count(n, keep):\n    return int(n), [int(k) for k in keep]\n")
    assert _enclosing(tree, _int_reads_dims) == [
        "_dims (line 2)", "trace (line 5)", "size (line 8)"]


def test_the_integer_scan_sees_a_second_copy():
    tree = ast.parse(
        "import numpy as np\n\n"
        "def _is_int(v):\n"
        "    return isinstance(v, (int, np.integer)) and not isinstance(v, bool)\n\n"
        "def axes(regs):\n"
        "    return [r for r in regs if isinstance(r, (bool, str)) or r < 0]\n\n"
        "def count(n):\n    return isinstance(n, int)\n")
    assert _enclosing(tree, _is_bool_test) == ["_is_int (line 4)", "axes (line 7)"]


def _is_label_lookup(node: ast.AST) -> bool:
    # <...>.labels.index(...) or labels.index(...)
    if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr == "index"):
        return False
    owner = node.func.value
    return (isinstance(owner, ast.Attribute) and owner.attr == "labels"
            or isinstance(owner, ast.Name) and owner.id == "labels")


def test_register_labels_are_resolved_only_in_the_pure_state_resolver():
    found = {path.name: _enclosing(_tree(path), _is_label_lookup) for path in MODULES}
    found = {name: uses for name, uses in found.items() if uses}
    assert list(found) == ["states.py"], found
    assert [use.split()[0] for use in found["states.py"]] == ["_axes"]


def test_the_label_scan_sees_a_second_copy():
    tree = ast.parse(
        "class PureState:\n"
        "    def _axes(self, registers):\n"
        "        return [self.labels.index(r) for r in registers]\n\n"
        "def _slot_step(psi, j):\n"
        "    return psi.labels.index(f'S{j}'), psi.dims.index(2)\n\n"
        "def cut(labels, names):\n"
        "    return sorted(labels.index(n) for n in names), names.index('E')\n")
    assert _enclosing(tree, _is_label_lookup) == ["_axes (line 3)", "_slot_step (line 6)",
                                                  "cut (line 9)"]


def _is_range_check(node: ast.AST) -> bool:
    # 0 <= i < n, or a disjunction holding i < 0 and j >= n
    if isinstance(node, ast.Compare):
        return (isinstance(node.left, ast.Constant) and node.left.value == 0
                and [type(op) for op in node.ops] == [ast.LtE, ast.Lt])
    if not (isinstance(node, ast.BoolOp) and isinstance(node.op, ast.Or)):
        return False
    tests = [v for v in node.values if isinstance(v, ast.Compare) and len(v.ops) == 1]
    below = any(isinstance(t.ops[0], ast.Lt) and isinstance(t.comparators[0], ast.Constant)
                and t.comparators[0].value == 0 for t in tests)
    return below and any(isinstance(t.ops[0], ast.GtE) for t in tests)


def _is_kind_switch(node: ast.AST) -> bool:
    # isinstance(x, <a state kind>) or isinstance(x, (..., <a state kind>, ...))
    if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id == "isinstance" and len(node.args) == 2):
        return False
    kinds = node.args[1].elts if isinstance(node.args[1], ast.Tuple) else [node.args[1]]
    return any(isinstance(k, ast.Name) and k.id in ("DensityMatrix", "PureState", "JointPMF")
               for k in kinds)


def test_positions_are_range_checked_only_in_the_resolver():
    found = {path.name: _enclosing(_tree(path), _is_range_check) for path in MODULES}
    found = {name: uses for name, uses in found.items() if uses}
    assert list(found) == ["linalg.py"], found
    assert [use.split()[0] for use in found["linalg.py"]] == ["_positions"]
    assert _enclosing(_tree(PACKAGE / "info.py"), _is_kind_switch) == []


def test_the_range_scan_sees_a_second_copy():
    tree = ast.parse(
        "def _positions(items, n):\n"
        "    return [i for i in items if 0 <= i < n]\n\n"
        "def apply_kraus(m, dims, target):\n"
        "    if not 0 <= target < len(dims):\n        raise ValueError(target)\n\n"
        "def partial_trace(m, keep, n):\n"
        "    if keep and (keep[0] < 0 or keep[-1] >= n):\n        raise ValueError(keep)\n\n"
        "def counts(n, ndim, r, s, seed):\n"
        "    return 0 <= n <= ndim, 1 <= r < s, seed < 0 or n > ndim\n\n"
        "def _resolved(rho, cut):\n"
        "    if isinstance(rho, (PureState, str)):\n        return rho._axes(cut)\n"
        "    return cut if isinstance(rho, DensityMatrix) or isinstance(cut, tuple) else None\n")
    assert _enclosing(tree, _is_range_check) == [
        "_positions (line 2)", "apply_kraus (line 5)", "partial_trace (line 9)"]
    assert _enclosing(tree, _is_kind_switch) == ["_resolved (line 16)", "_resolved (line 18)"]


def _is_spectrum_sum(node: ast.AST) -> bool:
    # spectrum_entropy(...) or <module>.spectrum_entropy(...)
    return isinstance(node, ast.Call) and (
        isinstance(node.func, ast.Name) and node.func.id == "spectrum_entropy"
        or isinstance(node.func, ast.Attribute) and node.func.attr == "spectrum_entropy")


def _shannon_readers(classical: ast.Module, importer: ast.Module) -> tuple[list[str], list[str]]:
    """Where `classical` sums a Shannon entropy, and the names of those
    readers that `importer` takes from a module named classical."""
    readers = _enclosing(classical, _is_spectrum_sum)
    taken = {a.name for node in ast.walk(importer) if isinstance(node, ast.ImportFrom)
             and (node.module or "").split(".")[-1] == "classical" for a in node.names}
    return readers, sorted({r.split()[0] for r in readers} & taken)


def test_the_shannon_sum_is_reached_only_inside_the_table_reader():
    readers, imported = _shannon_readers(_tree(PACKAGE / "classical.py"),
                                         _tree(PACKAGE / "experiments.py"))
    assert [r.split()[0] for r in readers] == ["_entropies"], readers
    assert imported == []


def test_the_shannon_scan_sees_a_second_copy():
    classical = ast.parse(
        "from .states import spectrum_entropy\n\n"
        "class JointPMF:\n"
        "    def _entropies(self, *subsets):\n"
        "        return [spectrum_entropy(self.marginal(s)) for s in subsets]\n\n"
        "def shannon_entropies(probs, subset):\n"
        "    return states.spectrum_entropy(probs.reshape(len(probs), -1))\n")
    experiments = ast.parse("from .classical import JointPMF, shannon_entropies\n")
    readers, imported = _shannon_readers(classical, experiments)
    assert readers == ["_entropies (line 5)", "shannon_entropies (line 8)"]
    assert imported == ["shannon_entropies"]


def _calls(name: str):
    # a call of `name` or of <...>.name
    def match(node: ast.AST) -> bool:
        return isinstance(node, ast.Call) and (
            isinstance(node.func, ast.Name) and node.func.id == name
            or isinstance(node.func, ast.Attribute) and node.func.attr == name)
    return match


def _callers(name: str) -> dict[str, list[str]]:
    found = {path.name: [use.split()[0] for use in _enclosing(_tree(path), _calls(name))]
             for path in MODULES}
    return {module: uses for module, uses in found.items() if uses}


def test_the_register_kernel_and_budget_are_reached_only_through_the_register_core():
    assert _callers("_apply_registers") == {"linalg.py": ["apply_two_site"],
                                            "states.py": ["_apply"]}
    assert _callers("_check_budget") == {"states.py": ["_apply", "splice"]}


def test_the_register_call_scan_sees_a_second_caller():
    tree = ast.parse(
        "from .linalg import _apply_registers\n\n"
        "class PureState:\n"
        "    def _apply(self, op, axes):\n"
        "        _check_budget(op.shape[-2])\n"
        "        return _apply_registers(self.vec, self.dims, op, axes, True)\n\n"
        "def fresh_env_circuit(basis, dims, u):\n"
        "    return linalg._apply_registers(basis, dims, u, (0, 1), in_place=True).T\n\n"
        "def _slot_step(psi, iso):\n"
        "    states._check_budget(len(iso))\n")
    assert _enclosing(tree, _calls("_apply_registers")) == [
        "_apply (line 6)", "fresh_env_circuit (line 9)"]
    assert _enclosing(tree, _calls("_check_budget")) == ["_apply (line 5)", "_slot_step (line 12)"]


def test_one_slot_step_serves_the_builder_contract_and_the_forward_runner():
    assert _callers("_slot_step") == {"process_tensor.py": [
        "state", "_run_forward", "_run_forward", "contract"]}
    assert _callers("_run_forward") == {
        "process_tensor.py": ["_port_mutual_informations", "_two_time_table"]}


def test_the_slot_step_and_runner_call_scan_sees_a_second_caller():
    tree = ast.parse(
        "def contract(pt, isos):\n"
        "    return _slot_step(pt.circuit, pt.state, 1, 'S', isos[0])\n\n"
        "def _port_mutual_informations(pt, pairs, isos):\n"
        "    stepped = [_slot_step(pt.circuit, pt.state, j, 'Sj') for j in pairs]\n"
        "    return stepped, _run_forward(pt.circuit, pairs, lambda _: None)\n\n"
        "def dephased_joint_pmf(pt):\n"
        "    return process_tensor._run_forward(pt.circuit, [(1, 2)], purify)\n")
    assert _enclosing(tree, _calls("_slot_step")) == [
        "contract (line 2)", "_port_mutual_informations (line 5)"]
    assert _enclosing(tree, _calls("_run_forward")) == [
        "_port_mutual_informations (line 6)", "dephased_joint_pmf (line 9)"]


def _state_reads(tree: ast.Module) -> list[str]:
    return _enclosing(tree, lambda node: isinstance(node, ast.Attribute)
                      and node.attr == "state")


def test_the_tensor_state_is_read_only_by_the_two_whole_state_readers():
    assert [use.split()[0] for use in _state_reads(_tree(PACKAGE / "process_tensor.py"))] == [
        "markov_factorization_gap", "dephased_joint_pmf"]


def test_the_state_read_scan_sees_a_third_reader():
    tree = ast.parse(
        "class SystemEnvCircuit:\n"
        "    @cached_property\n"
        "    def state(self):\n        return _build(self)\n\n"
        "    @property\n"
        "    def ports(self):\n        return self.state.labels[:-1]\n\n"
        "def markov_factorization_gap(circuit):\n"
        "    return circuit.state.entropies(('E',))\n\n"
        "def contract(circuit, isos):\n"
        "    states = [circuit.initial]\n"
        "    return states, circuit.state.vec\n")
    assert _state_reads(tree) == ["ports (line 8)", "markov_factorization_gap (line 11)",
                                  "contract (line 15)"]
