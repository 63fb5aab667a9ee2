"""The hardware layer imports nothing from the tools that observe it.

``repro.hardware`` sits below the tracers, the race detector and the
sweep harnesses. Its modules consult the import-free probe slot
(:mod:`repro.obs.probes`) and mark crash points; they never import
``repro.analysis`` or the instruments under ``repro.obs`` themselves,
which would make the bottom layer depend on everything built on it.
"""

import ast
from pathlib import Path

import repro.hardware

PACKAGE = Path(repro.hardware.__file__).parent
# The one upward name: marking a crash point is a hardware event.
ALLOWED = {("repro.faults.injector", "crash_point")}


def _imports(path: Path):
    """(absolute module, imported name) for every import in the file,
    ``TYPE_CHECKING`` blocks and function bodies included."""
    package = ["repro", "hardware"]
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name, None
        elif isinstance(node, ast.ImportFrom):
            prefix = package[: len(package) - node.level + 1] if node.level else []
            module = ".".join(prefix + ([node.module] if node.module else []))
            for alias in node.names:
                yield module, alias.name


def test_hardware_imports_no_instrument_and_no_analysis():
    upward = []
    for path in sorted(PACKAGE.glob("*.py")):
        for module, name in _imports(path):
            if not module.startswith("repro.") or (module, name) in ALLOWED:
                continue
            layer = module.split(".")[1]
            if layer in ("hardware", "sim") or module == "repro.obs.probes":
                continue
            upward.append(f"{path.name}: from {module} import {name}")
    assert not upward, "hardware/ imports upward:\n" + "\n".join(upward)
