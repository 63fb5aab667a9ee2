"""The layer map: which source file belongs to which layer, and how a
``cProfile`` run is folded onto it.

A layer is named after the module(s) it covers. ``_RULES`` is the single
place that decides it: a key ending in ``/`` covers a whole package, any
other key is one file; paths are relative to ``src/repro``. Everything
outside ``src/repro`` — stdlib Python frames and the runner itself — is
the layer ``other``.
"""

from __future__ import annotations

import re
from pathlib import Path

OTHER = "other"

_RULES = {
    "workloads/": "workloads",
    "db/": "db",
    "core/": "core",
    "baselines/": "baselines",
    "storage/": "storage",
    "hardware/memory.py": "hardware.memory",
    "hardware/cache.py": "hardware.cache",
    "hardware/__init__.py": "hardware.other",
    "hardware/cxl.py": "hardware.other",
    "hardware/rdma.py": "hardware.other",
    "hardware/host.py": "hardware.other",
    "sim/core.py": "sim.core",
    "sim/settle.py": "sim.settle",
    "sim/__init__.py": "sim.other",
    "sim/resources.py": "sim.other",
    "sim/latency.py": "sim.other",
    "sim/stats.py": "sim.other",
    "sim/rng.py": "sim.other",
    "obs/": "obs",
    "analysis/": "analysis",
    "faults/": "faults",
    "__init__.py": "bench",
    "bench/": "bench",
    "parallel/": "bench",
    "ha/": "bench",
}

LAYERS = tuple(dict.fromkeys(_RULES.values())) + (OTHER,)

NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def _matches(rel_path: str) -> list[str]:
    return [
        layer
        for rule, layer in _RULES.items()
        if (rel_path.startswith(rule) if rule.endswith("/") else rel_path == rule)
    ]


def check_layer_map(package_root: Path) -> None:
    """Every ``src/repro/**/*.py`` maps to exactly one layer, so a new
    module fails the run instead of silently landing in ``other``."""
    bad = []
    for path in sorted(package_root.rglob("*.py")):
        rel = path.relative_to(package_root).as_posix()
        found = _matches(rel)
        if len(found) != 1:
            bad.append(f"{rel} -> {found or 'no layer'}")
    if bad:
        raise SystemExit(
            "layers.py: source files that do not map to exactly one layer: "
            + "; ".join(bad)
        )


def check_names(declared: list[str], produced: list[str], what: str) -> None:
    """The names in BENCHMARK.json and the names the runner outputs are
    the same set, each well-formed and used once."""
    problems = [f"malformed {name!r}" for name in declared if not NAME_RE.fullmatch(name)]
    problems += [f"{name!r} declared twice" for name in set(declared) if declared.count(name) > 1]
    problems += [f"{name!r} declared, never output" for name in set(declared) - set(produced)]
    problems += [f"{name!r} output, not declared" for name in set(produced) - set(declared)]
    if problems:
        raise SystemExit(f"BENCHMARK.json {what}: " + "; ".join(sorted(problems)))


class LayerFold:
    """Self time and inbound calls per layer, summed over profiled reps.

    Each profiled Python function's self time goes to the layer of its
    source file. A C builtin has no source file: its self time goes to
    the layer of the Python function that called it, read from the
    profile's caller table. ``calls_in[L]`` counts calls of L's Python
    functions made by anything that is not itself a Python function of
    L (another layer, or a builtin such as ``generator.send``).
    """

    def __init__(self, package_root: Path) -> None:
        self._prefix = str(package_root) + "/"
        self._layer_of_file: dict[str, str] = {}
        self.self_s = dict.fromkeys(LAYERS, 0.0)
        self.calls_in = dict.fromkeys(LAYERS, 0)

    def layer(self, code: object) -> str:
        filename = code.co_filename  # type: ignore[attr-defined]
        layer = self._layer_of_file.get(filename)
        if layer is None:
            layer = OTHER
            if filename.startswith(self._prefix):
                layer = _matches(filename[len(self._prefix):])[0]
            self._layer_of_file[filename] = layer
        return layer

    def add(self, stats: list) -> None:
        """Fold one ``cProfile.Profile.getstats()`` list."""
        for entry in stats:
            if isinstance(entry.code, str):
                continue  # a builtin: charged through its callers below
            layer = self.layer(entry.code)
            self.self_s[layer] += entry.inlinetime
            self.calls_in[layer] += entry.callcount
            for sub in entry.calls or ():
                if isinstance(sub.code, str):
                    self.self_s[layer] += sub.inlinetime
                elif self.layer(sub.code) == layer:
                    self.calls_in[layer] -= sub.callcount


def call_count(stats: list, codes: tuple) -> int:
    """Total calls of the given code objects in one profile."""
    return sum(entry.callcount for entry in stats if entry.code in codes)
