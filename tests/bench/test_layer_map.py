"""The end-to-end benchmark refuses to run when a ``src/repro`` module
maps to no layer or to two (``benchmarks/e2e/layers.py``). That check
lives outside tier-1's ``testpaths``; running it here makes a new module
the benchmark would refuse fail tier-1 first.
"""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]


def test_every_source_module_maps_to_exactly_one_layer():
    spec = importlib.util.spec_from_file_location(
        "e2e_layers", ROOT / "benchmarks" / "e2e" / "layers.py"
    )
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    layers.check_layer_map(ROOT / "src" / "repro")  # raises SystemExit, naming the files
