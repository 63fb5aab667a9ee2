"""The model layers import nothing from the tools that observe them.

``sim``, ``hardware``, ``storage``, ``db``, ``core``, ``baselines`` and
``workloads`` are the model; the tracers, the metrics pipeline, the race
detector, the fault injector and every harness are built *on* it. Model
modules consult the import-free probe slot (:mod:`repro.obs.probes`) and
mark crash points; they never import an instrument, ``repro.analysis``
or a harness package, which would make the bottom of the stack depend on
everything above it. ``repro.hardware`` is held to the stricter rule it
has had since the access path was collapsed: only ``hardware``, ``sim``,
the slot and ``crash_point``.
"""

import ast
from pathlib import Path

import repro
import repro.obs.probes

SRC = Path(repro.__file__).parent
MODEL_LAYERS = ("sim", "hardware", "storage", "db", "core", "baselines", "workloads")
#: Packages a model layer may never import from.
ABOVE_THE_MODEL = ("analysis", "bench", "parallel", "ha")
#: The only names the model takes from the fault injector: marking a
#: crash point, and letting the simulated power loss propagate.
FROM_FAULTS = {
    ("repro.faults.injector", "crash_point"),
    ("repro.faults.injector", "InjectedCrash"),
}


def _type_checking_lines(tree: ast.Module) -> set[int]:
    """Line numbers inside ``if TYPE_CHECKING:`` blocks (annotations only)."""
    lines: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.If) and "TYPE_CHECKING" in ast.unparse(node.test):
            for child in node.body:
                lines.update(range(child.lineno, child.end_lineno + 1))
    return lines


def _imports(path: Path, runtime_only: bool = False):
    """(absolute module, imported name) for every import in the file,
    function bodies included; ``TYPE_CHECKING`` blocks too unless
    ``runtime_only``."""
    package = ["repro", *path.relative_to(SRC).parts[:-1]]
    tree = ast.parse(path.read_text())
    skipped = _type_checking_lines(tree) if runtime_only else set()
    for node in ast.walk(tree):
        if getattr(node, "lineno", None) in skipped:
            continue
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name, None
        elif isinstance(node, ast.ImportFrom):
            prefix = package[: len(package) - node.level + 1] if node.level else []
            module = ".".join(prefix + ([node.module] if node.module else []))
            for alias in node.names:
                yield module, alias.name


def _upward_imports(layer: str, runtime_only: bool):
    for path in sorted((SRC / layer).glob("*.py")):
        for module, name in _imports(path, runtime_only):
            if module.startswith("repro.") and module != "repro.obs.probes":
                yield path.name, module, name


def test_hardware_imports_no_instrument_and_no_analysis():
    upward = [
        f"{file}: from {module} import {name}"
        for file, module, name in _upward_imports("hardware", runtime_only=False)
        if module.split(".")[1] not in ("hardware", "sim")
        and (module, name) != ("repro.faults.injector", "crash_point")
    ]
    assert not upward, "hardware/ imports upward:\n" + "\n".join(upward)


def test_model_layers_take_only_the_slot_and_crash_points_from_the_instruments():
    upward = []
    for layer in MODEL_LAYERS:
        for file, module, name in _upward_imports(layer, runtime_only=True):
            package = module.split(".")[1]
            if (
                package in ABOVE_THE_MODEL
                or package == "obs"
                or (package == "faults" and (module, name) not in FROM_FAULTS)
            ):
                upward.append(f"{layer}/{file}: from {module} import {name}")
    assert not upward, "model layers import upward:\n" + "\n".join(upward)


def test_the_probe_slot_imports_nothing_from_the_package_at_run_time():
    path = Path(repro.obs.probes.__file__)
    assert [m for m, _ in _imports(path, runtime_only=True) if m.startswith("repro")] == []


def test_no_private_hook_global_and_no_active_alias_is_left():
    """One mechanism: the slot. No module keeps its own ``_ACTIVE`` and
    none imports an ``active`` / ``install`` / ``uninstall`` function."""
    offenders = [
        str(path.relative_to(SRC))
        for path in sorted(SRC.rglob("*.py"))
        if "_ACTIVE" in path.read_text()
        or any(name in ("active", "install", "uninstall") for _, name in _imports(path))
    ]
    assert offenders == []


def test_no_module_copies_a_world_with_deepcopy():
    """Clones come from the ``snapshot()`` / ``restore()`` protocol, where
    each component states what it owns; ``copy.deepcopy`` would copy
    whatever happens to be reachable."""
    offenders = [
        f"{path.relative_to(SRC)}:{node.lineno}"
        for path in sorted(SRC.rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        # an attribute, a bare name, or an imported alias
        if "deepcopy" in (getattr(node, n, None) for n in ("attr", "id", "name"))
    ]
    assert offenders == []


def test_the_sweeps_and_the_analysis_tools_import_no_parallel_runner():
    """The crash sweeps and CXL-Explore run serially; ``repro.parallel``
    sits above them (its CLI drives the sweeps), never below."""
    upward = [
        f"{layer}/{path.name}: from {module} import {name}"
        for layer in ("faults", "analysis")
        for path in sorted((SRC / layer).glob("*.py"))
        for module, name in _imports(path)
        if module == "repro.parallel" or module.startswith("repro.parallel.")
    ]
    assert not upward, "imports of repro.parallel:\n" + "\n".join(upward)


def test_no_module_reads_an_environment_variable():
    """A run depends on its arguments alone. Copying the environment for
    a child process (``dict(os.environ)``) is allowed; reading a variable
    (``os.getenv``, ``os.environ.get``, ``os.environ[...]``) is not."""
    readers = ("os.getenv", "getenv", "os.environ.get", "environ.get")
    offenders = [
        f"{path.relative_to(SRC)}:{node.lineno}: {ast.unparse(node)}"
        for path in sorted(SRC.rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if (isinstance(node, ast.Call) and ast.unparse(node.func) in readers)
        or (
            isinstance(node, ast.Subscript)
            and isinstance(node.ctx, ast.Load)
            and ast.unparse(node.value) in ("os.environ", "environ")
        )
    ]
    assert offenders == []
