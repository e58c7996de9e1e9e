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
