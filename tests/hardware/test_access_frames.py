"""The collapsed access path stays collapsed.

A typed page read used to cross eleven Python frames and three probe
calls before it reached the region buffer. It is now the page view, the
pool's window and the fused frame in ``hardware/memory.py``; with no
instrument installed it consults the probe slot by attribute and calls
no ``active()``. Counted with ``sys.setprofile`` on a DRAM, a CXL and an
RDMA pool page, so a wrapper or a probe call that creeps back in fails
here, deterministically, instead of as a few percent on a noisy box.
"""

import sys
from pathlib import Path

import pytest

from repro.bench.harness import build_pooling_setup
from repro.db.constants import OFF_NRECS
from repro.workloads.sysbench import SysbenchWorkload


def _python_frames(call) -> list:
    """(file, function) of every Python frame entered while ``call()`` runs."""
    entered = []

    def profiler(frame, event, arg):
        if event == "call":
            code = frame.f_code
            entered.append((Path(code.co_filename).name, code.co_name))

    sys.setprofile(profiler)
    try:
        call()
    finally:
        sys.setprofile(None)
    return entered[1:]  # entered[0] is `call` itself


@pytest.mark.parametrize("system", ["dram", "cxl", "rdma"])
def test_typed_page_read_is_three_frames_and_no_probe_call(system):
    setup = build_pooling_setup(system, 1, SysbenchWorkload(rows=100), seed=7)
    engine = setup.instances[0].engine
    mtr = engine.mtr()
    view = mtr.get_page(engine.tables["sbtest1"].btree.root_page_id)
    view.read_u16(OFF_NRECS)  # warm the line: the steady-state access is a hit
    frames = _python_frames(lambda: view.read_u16(OFF_NRECS))
    mtr.commit()
    assert frames == [
        ("page.py", "read_u16"),  # PageView
        ("memory.py", "unpack"),  # WindowedMemory: the pool's page accessor
        ("memory.py", "unpack"),  # MappedMemory: the fused frame
    ]
