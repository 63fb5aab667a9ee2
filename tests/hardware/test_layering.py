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

The package also keeps nothing without a caller: every function, class
and method is named by some other code in ``src/`` or ``benchmarks/``,
or is allowed by name with the reason it stays.
"""

import ast
import collections
import fnmatch
import re
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


def test_workloads_import_nothing_from_the_fault_injector():
    """Drivers run ops; only the HA fleet, above the model, catches a
    simulated crash to fail a node over."""
    faults = [
        f"workloads/{file}: from {module} import {name}"
        for file, module, name in _upward_imports("workloads", runtime_only=False)
        if module.split(".")[1] == "faults"
    ]
    assert not faults, "workloads/ imports repro.faults:\n" + "\n".join(faults)


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


def test_no_module_outside_bench_imports_the_bench_harness():
    """Worlds and their setup types come from :mod:`repro.obs.world`, not
    from the measurement package; ``TYPE_CHECKING`` imports count too.
    (The HA fleet still takes its metric sources and its recovery
    experiment from the ``repro.bench`` package.)"""
    offenders = [
        f"{path.relative_to(SRC)}: from {module} import {name}"
        for path in sorted(SRC.rglob("*.py"))
        if path.relative_to(SRC).parts[0] != "bench"
        for module, name in _imports(path)
        if module == "repro.bench.harness" or (module, name) == ("repro.bench", "harness")
    ]
    assert not offenders, "imports of repro.bench.harness:\n" + "\n".join(offenders)


def test_no_obs_module_imports_the_bench_package():
    """The observability layer sits below the harnesses that report on
    it: whatever renders a pipeline lives in ``repro.obs`` beside it."""
    upward = [
        f"{path.relative_to(SRC)}: from {module} import {name}"
        for path in sorted((SRC / "obs").rglob("*.py"))
        for module, name in _imports(path)
        if module == "repro.bench"
        or module.startswith("repro.bench.")
        or (module, name) == ("repro", "bench")
    ]
    assert not upward, "repro.obs imports repro.bench:\n" + "\n".join(upward)


def test_the_world_builder_imports_nothing_above_it():
    """``repro.obs.world`` wires the model. The tools that run, crash and
    check worlds sit above it, never below, and of ``obs`` it takes only
    the image cache and the probe slot, no instrument."""
    allowed_obs = ("repro.obs.image", "repro.obs.probes")
    upward = [
        f"from {module} import {name}"
        for module, name in _imports(SRC / "obs" / "world.py")
        if module.startswith("repro.")
        and (
            module.split(".")[1] in (*ABOVE_THE_MODEL, "faults")
            or (module.split(".")[1] == "obs" and module not in allowed_obs)
        )
    ]
    assert not upward, "repro.obs.world imports upward:\n" + "\n".join(upward)


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


# -- every name has a caller ------------------------------------------------------

BENCHMARKS = SRC.parents[1] / "benchmarks"
#: ``"package.module:function"`` strings name a callee too (work units).
_TASK_STRING = re.compile(r"^[\w.]+:(\w+)$")
#: Definitions no ``src/`` or ``benchmarks/`` code names, kept on purpose.
#: Keys are ``module:Qualname`` patterns (:func:`fnmatch.fnmatchcase`).
NO_CALLER_ALLOWED = {
    "repro.workloads.sysbench:SysbenchWorkload.txn_*":
        "txn_fn dispatches by getattr(self, 'txn_' + mix)",
    "repro.workloads.*:*._ops_*":
        "TPC-C and TATP dispatch transactions by getattr(self, '_ops_' + name)",
    "repro.analysis.lint:_Checker.visit_*":
        "ast.NodeVisitor dispatches visit_<node type> by name",
    "repro.parallel.probes:*":
        "spawn-safety probes, run by the tests as work units in spawned workers",
    "repro.db.btree:BTree.iter_all": "test-inspection read: every row in key order",
    "repro.db.btree:BTree.verify": "the tree-structure oracle the B-tree tests run",
    "repro.core.cxl_bufferpool:CxlBufferPool.lru_order": "test-inspection read",
    "repro.db.table:Table.find_by": "test-inspection read: secondary-index lookup",
    "repro.db.page:PageView.stored_page_id": "test-inspection read of the page header",
    "repro.analysis.memsan:MemSan.line_state": "test-inspection read of one line",
    "*:*.hit_ratio": "test-inspection read",
    "*:*.dirty_count": "test-inspection read",
    "repro.obs.slo:SLOMonitor.firing": "test-inspection read of the open alerts",
    "repro.core.shard_router:FusionShardRouter.has_page":
        "test-inspection read through setup.fusion, which may be a router",
    "repro.core.shard_router:FusionShardRouter.entry_of":
        "test-inspection read through setup.fusion, which may be a router",
    **{
        f"repro.core.shard_router:FusionShardRouter.{stat}":
            "bench.harness reads it by name (_FUSION_STATS) when setup.fusion is a router"
        for stat in ("rpcs", "pages_recycled", "invalidations_pushed", "reshares")
    },
    "repro.core.sharing:SharedCxlBufferPool.metadata_entries_used":
        "test-inspection read",
    "repro.db.txn:Transaction.rolled_back": "test-inspection read",
    "repro.db.txn:Transaction.committed": "test-inspection read",
    "repro.faults.sweep:SweepReport.raise_for_failures":
        "the sweep's assertion for tests and interactive runs: raises naming every red coordinate",
    "repro.obs.slo:HealthTimeline.worst": "test-inspection read of one entity's arc",
    "repro.obs.trace:TraceEvent.subsystem":
        "one of the event's five read-only fields; the ring spec compares all five",
    "repro.hardware.memory:MemoryRegion.poisoned": "test-inspection read",
    "repro.hardware.cache:LineCacheModel.touch":
        "the one-line probe touch_range is specified against; tests compare them",
    "repro.storage.wal:RedoRecord.size_bytes": "test-inspection read",
    "repro.storage.wal:RedoLog.buffered_records": "test-inspection read",
    "repro.faults.injector:FaultInjector.fail_rpcs": "fault entry point for tests",
    "repro.faults.injector:FaultInjector.arm_after_total": "fault entry point for tests",
    "repro.hardware.cxl:CxlFabric.power_fail_pool":
        "kept for the memory-device failure item (ROADMAP item 3)",
    "repro.hardware.host:Cluster.add_fabric":
        "kept for the memory-device failure item (ROADMAP item 3)",
}


class _Mentions(ast.NodeVisitor):
    """Every mention of a name in a module, as ``(line, name, attribute,
    owner)``. ``attribute`` marks what can reach a method: an attribute
    read or a ``"module:function"`` task string. ``owner`` is the class an
    attribute read is known to go to: ``self.X`` in a method goes to the
    method's class, ``p.X`` to the class ``p`` is annotated with; any
    other read has no owner."""

    def __init__(self, classes: set[str]) -> None:
        self.classes = classes
        self.found: list[tuple[int, str, bool, str | None]] = []
        self._class: str | None = None  # whose body, outside any method
        self._typed: dict[str, str] = {}  # parameter -> its class

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        outer, self._class = self._class, node.name
        self.generic_visit(node)
        self._class = outer

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        outer = self._class, self._typed
        self._typed = dict(self._typed)
        params = [*node.args.posonlyargs, *node.args.args, *node.args.kwonlyargs]
        for index, param in enumerate(params):
            spelt = ast.unparse(param.annotation) if param.annotation else ""
            annotated = spelt.strip("\"'").rsplit(".", 1)[-1]
            if index == 0 and self._class is not None and param.arg == "self":
                self._typed["self"] = self._class
            elif annotated in self.classes:
                self._typed[param.arg] = annotated
            else:
                self._typed.pop(param.arg, None)
        self._class = None
        self.generic_visit(node)
        self._class, self._typed = outer

    def visit_Name(self, node: ast.Name) -> None:
        self.found.append((node.lineno, node.id, False, None))

    def visit_Attribute(self, node: ast.Attribute) -> None:
        value = node.value
        owner = self._typed.get(value.id) if isinstance(value, ast.Name) else None
        self.found.append((node.lineno, node.attr, True, owner))
        self.generic_visit(node)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        self.found.extend((node.lineno, alias.name, False, None) for alias in node.names)

    def visit_Constant(self, node: ast.Constant) -> None:
        match = _TASK_STRING.match(node.value) if isinstance(node.value, str) else None
        if match:
            self.found.append((node.lineno, match.group(1), True, None))


def _ancestors(trees) -> dict[str, set[str]]:
    """Each class name -> the names of all its bases, transitively."""
    bases: dict[str, set[str]] = collections.defaultdict(set)
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef):
                bases[node.name].update(
                    # ``mod.Base`` -> ``Base``; ``Generic[T]`` -> ``Generic``
                    ast.unparse(base.value if isinstance(base, ast.Subscript) else base)
                    .rsplit(".", 1)[-1]
                    for base in node.bases
                )
    closed: dict[str, set[str]] = {}

    def close(name: str) -> set[str]:
        if name not in closed:
            closed[name] = set()
            for base in bases.get(name, ()):
                closed[name] |= {base} | close(base)
        return closed[name]

    for name in list(bases):
        close(name)
    return closed


def _class_aliases(cls: ast.ClassDef) -> set[str]:
    """Names read by a class body outside its methods
    (``visit_ListComp = _visit_comp``)."""
    return {
        node.id
        for statement in cls.body
        if not isinstance(statement, (ast.FunctionDef, ast.ClassDef))
        for node in ast.walk(statement)
        if isinstance(node, ast.Name)
    }


def _definitions(tree: ast.Module):
    """(qualname, name, node, class) of every top-level function and
    class (class ``None``) and every non-dunder method."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node.name, node, None
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not (
                    item.name.startswith("__") and item.name.endswith("__")
                ):
                    yield f"{node.name}.{item.name}", item.name, item, node


def uncalled(src: Path, benchmarks: Path) -> list[str]:
    """``module:Qualname`` of every definition under ``src`` that no code
    names: not another module of ``src``, not its own module outside its
    own body, not ``benchmarks``. A package ``__init__`` re-export is not
    a caller. A function or class is named by any mention of its
    spelling; a method only by an attribute read or a task string of its
    name, or by an alias in its own class body, so a local variable or a
    module function spelt like a method does not count as its caller. An
    attribute read with an owner (``self.X``, or ``p.X`` through an
    annotated parameter) names only the methods of the owner's class, its
    bases and its subclasses; one without names a method of any class."""
    trees = {path: ast.parse(path.read_text()) for path in sorted(src.rglob("*.py"))}
    trees.update((path, ast.parse(path.read_text())) for path in sorted(benchmarks.rglob("*.py")))
    ancestors = _ancestors(trees.values())
    by_name: dict[str, list] = collections.defaultdict(list)
    for path, tree in trees.items():
        if path.name == "__init__.py" and path.is_relative_to(src):
            tree = ast.Module(
                body=[n for n in tree.body if not isinstance(n, ast.ImportFrom)], type_ignores=[]
            )
        mentions = _Mentions(set(ancestors))
        mentions.visit(tree)
        for line, name, attribute, owner in mentions.found:
            by_name[name].append((path, line, attribute, owner))

    def related(cls: str, owner: str) -> bool:
        return cls == owner or cls in ancestors[owner] or owner in ancestors[cls]

    missing = []
    for path, tree in trees.items():
        if not path.is_relative_to(src):
            continue
        module = ".".join(path.relative_to(src.parent).with_suffix("").parts)
        for qualname, name, node, cls in _definitions(tree):
            own_body = range(node.lineno, node.end_lineno + 1)
            if any(
                where != path or line not in own_body
                for where, line, attribute, owner in by_name[name]
                if cls is None or (attribute and (owner is None or related(cls.name, owner)))
            ):
                continue
            if cls is not None and name in _class_aliases(cls):
                continue
            missing.append(f"{module}:{qualname}")
    return missing


def test_every_src_name_has_a_caller():
    """A function, class or method that only its own tests reach is
    surface no golden, sweep or benchmark covers: delete it, or allow
    it above with the reason it stays."""
    missing = uncalled(SRC, BENCHMARKS)
    unexplained = [
        name
        for name in missing
        if not any(fnmatch.fnmatchcase(name, key) for key in NO_CALLER_ALLOWED)
    ]
    assert unexplained == [], "no caller in src/ or benchmarks/:\n" + "\n".join(unexplained)
    stale = [
        key for key in NO_CALLER_ALLOWED if not any(fnmatch.fnmatchcase(n, key) for n in missing)
    ]
    assert stale == [], f"allowlist entries that now have a caller: {stale}"


def test_recovery_is_wired_once():
    """PolarRecv runs in one place, :func:`repro.obs.world.recover_cxl_engine`;
    the sweeps, the figures and the benchmarks bring a crashed PolarCXLMem
    engine back through it, so a change to what recovery does is made once."""
    world = SRC / "obs" / "world.py"
    offenders = [
        f"{path.relative_to(SRC.parents[1])}:{node.lineno}"
        for path in sorted([*SRC.rglob("*.py"), *BENCHMARKS.rglob("*.py")])
        if path != world
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Call) and ast.unparse(node.func).split(".")[-1] == "PolarRecv"
    ]
    assert offenders == [], "PolarRecv wired outside the world builder:\n" + "\n".join(offenders)


def test_sharing_locks_are_taken_once():
    """A multi-primary critical section (acquire, access, flush, release)
    is written once, in :meth:`MultiPrimaryNode._locked`: no other module
    takes or drops a page lock, and no other function of the node takes
    one, so the lock, span and MemSan steps cannot drift apart."""
    from repro.core.fusion import PageLockService

    verbs = {name for name in vars(PageLockService) if name.startswith(("lock", "unlock"))}
    sharing = SRC / "core" / "sharing.py"

    def calls(tree: ast.AST, names: set[str]) -> list[ast.Call]:
        return [
            node
            for node in ast.walk(tree)
            if isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in names
        ]

    offenders = [
        f"{path.relative_to(SRC.parents[1])}:{node.lineno}"
        for path in sorted([*SRC.rglob("*.py"), *BENCHMARKS.rglob("*.py")])
        if path != sharing
        for node in calls(ast.parse(path.read_text()), verbs)
    ]
    assert offenders == [], "page locks taken outside core/sharing.py:\n" + "\n".join(offenders)
    node_class = next(
        node
        for node in ast.parse(sharing.read_text()).body
        if isinstance(node, ast.ClassDef) and node.name == "MultiPrimaryNode"
    )
    acquirers = [
        method.name
        for method in node_class.body
        if isinstance(method, ast.FunctionDef)
        and calls(method, {verb for verb in verbs if verb.startswith("lock")})
    ]
    assert acquirers == ["_locked"], f"MultiPrimaryNode acquires page locks in {acquirers}"


def test_a_read_through_self_or_a_typed_parameter_names_only_its_class(tmp_path):
    """``self.X`` and ``p.X`` (``p: Cls``) reach the methods of one class
    family; a read through anything else still reaches any class's ``X``."""
    src, benchmarks = tmp_path / "repro", tmp_path / "benchmarks"
    src.mkdir()
    benchmarks.mkdir()
    (src / "mod.py").write_text(
        "class Base:\n"
        "    def hook(self): self.step()\n"
        "    def step(self): pass\n"
        "class Child(Base):\n"
        "    def step(self): pass\n"
        "class Other:\n"
        "    def step(self): pass\n"
        "    def hook(self): pass\n"
        "    def typed(self): pass\n"
        "    def loose(self): pass\n"
        "def drive(base: Base, thing):\n"
        "    base.hook()\n"
        "    thing.loose()\n"
        "    return Child, Other\n"
    )
    assert uncalled(src, benchmarks) == [
        "repro.mod:Other.step",
        "repro.mod:Other.hook",
        "repro.mod:Other.typed",
        "repro.mod:drive",
    ]
