"""The typed access primitives charge exactly what the reads they stand
for would — bare and with every instrument installed.

``MappedMemory.unpack`` / ``read_run`` and ``WindowedMemory`` are
host-side speed-ups only: for any access list, going through them must
leave ``meter.ns`` (bit for bit), the counters, the transfer list and
the line cache's LRU order exactly as the per-field sequence of
``read`` / ``write`` calls does. Bare, the reference is the executable
spec ``SpecMappedMemory`` (``reference_models.check_equivalence``);
under ``Tracer`` / ``SpanTracer`` / ``MemSan`` it is the per-field
sequence on a twin memory under a twin instrument, and what the
instrument saw must be equal too — also inside an armed
``FaultInjector``: the pooled access path has no crash point, so the
injector must neither fire nor record a hit, and (it does not set
``PROBES.any``) nothing an instrument saw may change. The line cache
holds a handful of lines, so runs evict in the middle.
"""

import contextlib
import hashlib
import struct

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.memsan import MemSan
from repro.faults.injector import FaultInjector
from repro.hardware.memory import WindowedMemory
from repro.obs import SpanTracer, Tracer
from repro.sim.latency import CACHE_LINE

from .reference_models import (
    _EQ_CACHE_BYTES,
    _EQ_HIT_NS,
    EQUIVALENCE_SPAN,
    _build_mapped,
    _equivalence_ops,
    check_equivalence,
    metering_state,
    replay_accesses,
)

FORMATS = [struct.Struct(f) for f in ("<B", "<H", "<Q", "<QQ")]
HOT = 1024  # offsets fall in 16 lines; the caches below hold 2..12
MAX_RUN = 48
MARGIN = MAX_RUN * 3 * 16  # the longest run, either way, stays in the window

offsets = st.integers(MARGIN, MARGIN + HOT - 1)
reads = st.tuples(
    st.just("read"), offsets, st.sampled_from([0, 1, 2, 8, 63, 64, 65, 130, 255, 256, 700])
)
writes = st.builds(
    lambda offset, nbytes, fill: ("write", offset, bytes([fill]) * nbytes),
    offsets,
    st.sampled_from([1, 2, 8, 61, 64, 130, 300]),
    st.integers(0, 255),
)
unpacks = st.tuples(st.just("unpack"), st.sampled_from(FORMATS), offsets)


@st.composite
def runs(draw):
    fmt = draw(st.sampled_from(FORMATS))
    step = draw(st.sampled_from([1, 2, 3, -1, -2])) * draw(st.sampled_from([fmt.size, 1, 3]))
    count = draw(st.integers(0, MAX_RUN))
    offset = draw(offsets)
    if draw(st.booleans()):
        offset -= offset % fmt.size
    return ("run", fmt, offset, step, count)


op_lists = st.lists(st.one_of(reads, writes, unpacks, runs()), max_size=40)
cache_lines = st.integers(2, 12)


def _typed(ops, lines):
    """Through the primitives, behind a window nested in a window."""
    mapped, _ = _build_mapped(True, 1 << 16, lines * CACHE_LINE)
    window = WindowedMemory(WindowedMemory(mapped, 4096, 1 << 15), 24, 1 << 14)
    return replay_accesses(window, ops, typed=True), metering_state(mapped)


def _per_field(ops, lines):
    mapped, _ = _build_mapped(True, 1 << 16, lines * CACHE_LINE)
    return replay_accesses(mapped, ops, typed=False, base=4096 + 24), metering_state(mapped)


@settings(max_examples=60, deadline=None)
@given(op_lists, cache_lines)
def test_bare_equals_the_spec(ops, lines):
    assert EQUIVALENCE_SPAN > HOT + 2 * MARGIN
    check_equivalence(ops=ops, cache_bytes=lines * CACHE_LINE)


@settings(max_examples=40, deadline=None)
@given(op_lists, cache_lines)
def test_equal_under_every_instrument(ops, lines):
    bare = _typed(ops, lines)
    assert bare == _per_field(ops, lines)

    # (typed, bare) (per field, bare) (typed, armed injector) (per field, armed injector)
    runs = [(replay, armed) for armed in (False, True) for replay in (_typed, _per_field)]

    def injector(armed):
        return FaultInjector().arm_after_total(1) if armed else contextlib.nullcontext()

    seen = []
    for replay, armed in runs:
        with Tracer() as tracer, injector(armed):
            assert replay(ops, lines) == bare  # instruments do not perturb the model
        seen.append(tracer.counters.snapshot())
    assert seen.count(seen[0]) == 4

    seen = []
    for replay, armed in runs:
        with SpanTracer() as spans, injector(armed):
            root = spans.begin("txn", "eq")
            assert replay(ops, lines) == bare
            spans.end(root)
            replay(ops, lines)  # nothing attached: every charge is dropped, and counted
        seen.append((root.costs, spans.dropped_costs))
    assert seen.count(seen[0]) == 4

    seen = []
    for replay, armed in runs:
        with MemSan() as memsan, injector(armed) as installed:
            memsan.watch_region("perf")  # the region _build_mapped names
            with memsan.actor("node0"):
                assert replay(ops, lines) == bare
        seen.append((memsan.accesses_checked, memsan.reports))
        assert not armed or (installed.fired is None and installed.hits == {})
    assert seen.count(seen[0]) == 4
    assert seen[0][0] == sum(1 if op[0] != "run" else op[4] for op in ops)


def test_check_equivalence_passes():
    # The built-in mix, at a quarter of its length, then the sharing
    # path's lock cycles (``check_cache_equivalence``).
    check_equivalence(n_accesses=5_000)


def test_the_reference_cannot_drift_with_the_model():
    """The built-in 20,000-access mix through the spec alone: the sha256
    over its ``metering_state`` at every drain is a literal, so an edit
    to the spec fails here even when the model was edited to match and
    the differential still passes."""
    ref, meter = _build_mapped(False, EQUIVALENCE_SPAN + 8192, _EQ_CACHE_BYTES, _EQ_HIT_NS)
    ops = list(_equivalence_ops(20_000))
    digest = hashlib.sha256()
    for start in range(0, len(ops), 512):
        replay_accesses(ref, ops[start : start + 512], typed=False, base=4096 + 24)
        digest.update(repr(metering_state(ref)).encode())
        meter.take()
    assert digest.hexdigest() == (
        "32a4d51d4a5ccbebe68d7220c96ca33b5d92f26034e71b545761f206eaca3645"
    )
