"""The row-based span log against a naive executable spec of the tracer.

``SpecTracer`` below is the span tracer written the plain way: every
span one dict in a list, the attach stack a list of those dicts, no
fast paths. A hypothesis state machine drives it and the real
:class:`~repro.obs.spans.SpanTracer` through the same calls — begin,
end with fields, record, add_ns, push / pop / attached segments,
abandon_open and clear, with and without a clock and a meter — and
after every step requires the same spans (every attribute), the same
mechanism buckets and bucket order, the same Perfetto JSON and the same
span-invariant verdict. A size guard pins what a closed span costs.
"""

import gc
import tracemalloc

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import Bundle, RuleBasedStateMachine, initialize, invariant, rule

from repro.hardware.memory import AccessMeter
from repro.obs.critical_path import summarize
from repro.obs.export import to_chrome_trace
from repro.obs.invariants import check_span_invariants
from repro.obs.spans import SpanTracer

ATTRS = ("span_id", "parent_id", "kind", "name", "t0", "t1", "ns", "status", "end_seq")


class SpecSpan:
    """A spec span read through attributes, as the report functions do."""

    def __init__(self, data):
        self.__dict__ = data


class SpecTracer:
    """The span tracer's semantics, spelt out over a list of dicts."""

    def __init__(self, clock=None):
        self.clock = clock
        self.spans, self.stack = [], []
        self.next_id = self.end_seq = self.abandoned_total = self.dropped_costs = 0

    def now(self):
        return float(self.clock()) if self.clock is not None else 0.0

    def on_stack(self, span):
        return any(entry is span for entry in self.stack)

    def new(self, kind, name, parent, t0, fields):
        if parent is None and self.stack:
            parent = self.stack[-1]
        self.next_id += 1
        span = {"span_id": self.next_id, "kind": kind, "name": name, "t0": t0,
                "t1": t0, "ns": 0.0, "status": "open", "fields": dict(fields),
                "costs": None, "end_seq": 0, "meter": None,
                "parent_id": parent["span_id"] if parent is not None else None}
        self.spans.append(span)
        return span

    def finish(self, span, status):
        span["status"], span["meter"] = status, None
        self.end_seq += 1
        span["end_seq"] = self.end_seq

    def begin(self, kind, name, meter=None, parent=None, push=True, **fields):
        span = self.new(kind, name, parent, self.now(), fields)
        if meter is not None:
            span.update(meter=meter, c0=meter.ns + meter.taken_ns, c_idx=len(meter.transfers))
        if push:
            self.stack.append(span)
        return span

    def end(self, span, **fields):
        if span["status"] != "open":
            return span
        span["fields"].update(fields)
        span["t1"] = self.now()
        wall, meter = span["t1"] - span["t0"], span["meter"]
        if wall <= 0.0 and meter is not None:
            charged = (meter.ns + meter.taken_ns) - span["c0"]
            for charge in meter.transfers[span["c_idx"]:]:
                charged += charge.base_ns
            span["ns"] = charged if charged > 0.0 else 0.0
        else:
            span["ns"] = wall
        self.finish(span, "closed")
        if self.on_stack(span):
            self.pop(span)
        return span

    def record(self, kind, name, parent=None, ns=0.0, t0=None, **fields):
        now = self.now()
        if t0 is None:
            t0 = now - ns
        else:
            ns = now - t0
        span = self.new(kind, name, parent, t0, fields)
        span["t1"], span["ns"] = now, float(ns) if ns > 0.0 else 0.0
        self.finish(span, "closed")
        return span

    def add_ns(self, kind, ns):
        if not self.stack:
            self.dropped_costs += 1
            return
        span = self.stack[-1]
        if span["costs"] is None:
            span["costs"] = {}
        span["costs"][kind] = span["costs"].get(kind, 0.0) + ns

    def push(self, span):
        self.stack.append(span)

    def pop(self, span):
        while self.stack:
            top = self.stack.pop()
            if top is span:
                return
            self.abandon(top)

    def abandon(self, span):
        if span["status"] == "open":
            span["t1"] = self.now()
            span["ns"] = float(span["t1"] - span["t0"])
            self.finish(span, "abandoned")
            self.abandoned_total += 1

    def abandon_open(self):
        self.stack.clear()
        still_open = [span for span in self.spans if span["status"] == "open"]
        for span in still_open:
            self.abandon(span)
        return len(still_open)

    def clear(self):
        if self.stack:
            raise RuntimeError("clear() with spans still attached")
        self.spans = []

    def check(self, allow_abandoned):
        """(spans, closed, abandoned, [(invariant, span id)]) by a by-id walk."""
        by_id, found, counts = {}, [], {"closed": 0, "abandoned": 0, "open": 0}
        for span in self.spans:
            by_id[span["span_id"]] = span
            counts[span["status"]] += 1
            if span["status"] == "open" or (span["status"] == "abandoned" and not allow_abandoned):
                found.append(("span_balance", span["span_id"]))
            parent = by_id.get(span["parent_id"]) if span["parent_id"] is not None else None
            if span["parent_id"] is not None and parent is None:
                found.append(("span_parent", span["span_id"]))
            elif parent is not None and span["status"] == parent["status"] == "closed" and (
                span["end_seq"] > parent["end_seq"] or span["t1"] > parent["t1"]
            ):
                found.append(("span_nesting", span["span_id"]))
        return len(self.spans), counts["closed"], counts["abandoned"], found


class Clock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


KINDS = st.sampled_from(["txn", "mtr", "page_fix", "rpc", "lock_wait", "cache_flush"])
NAMES = st.sampled_from(["get", "flush", "settle", "op"])
COST_KINDS = st.sampled_from(["cxl_access", "dram_access", "rpc"])
NS = st.sampled_from([-3.0, 0.0, 0.5, 7.0, 120.0, 250.0, 1e6])
FIELDS = st.dictionaries(
    st.sampled_from(["page", "node", "lines", "nbytes", "retries"]),
    st.one_of(st.integers(-5, 70000), st.sampled_from(["n0", "n1", None, (1, 2)])),
    max_size=3,
)


class SpanLogMachine(RuleBasedStateMachine):
    handles = Bundle("handles")

    @initialize(with_clock=st.booleans(), with_meter=st.booleans())
    def start(self, with_clock, with_meter):
        self.clock = Clock() if with_clock else None
        self.meter = AccessMeter() if with_meter else None
        self.real, self.spec = SpanTracer(clock=self.clock), SpecTracer(clock=self.clock)
        self.all = []

    def keep(self, pair):
        self.all.append(pair)
        return pair

    @rule(target=handles, kind=KINDS, name=NAMES, metered=st.booleans(), push=st.booleans(),
          parent=st.none() | handles, fields=FIELDS)
    def begin(self, kind, name, metered, push, parent, fields):
        meter = self.meter if metered else None
        real = self.real.begin(kind, name, meter=meter, parent=parent and parent[0],
                               push=push, **fields)
        spec = self.spec.begin(kind, name, meter=meter, parent=parent and parent[1],
                               push=push, **fields)
        return self.keep((real, spec))

    @rule(target=handles, kind=KINDS, name=NAMES, parent=st.none() | handles, ns=NS,
          back=st.none() | NS, fields=FIELDS)
    def record(self, kind, name, parent, ns, back, fields):
        t0 = None if back is None else (self.clock() if self.clock else 0.0) - back
        real = self.real.record(kind, name, parent=parent and parent[0], ns=ns, t0=t0, **fields)
        spec = self.spec.record(kind, name, parent=parent and parent[1], ns=ns, t0=t0, **fields)
        return self.keep((real, spec))

    @rule(pair=handles, fields=FIELDS)
    def end(self, pair, fields):
        self.real.end(pair[0], **fields)
        self.spec.end(pair[1], **fields)

    @rule(kind=COST_KINDS, ns=NS)
    def add_ns(self, kind, ns):
        self.real.add_ns(kind, ns)
        self.spec.add_ns(kind, ns)

    @rule(pair=handles)
    def push(self, pair):
        self.real.push(pair[0])
        self.spec.push(pair[1])

    @rule(pair=handles)
    def pop(self, pair):
        self.real.pop(pair[0])
        self.spec.pop(pair[1])

    @rule(pair=handles, kind=COST_KINDS, ns=NS, inner=st.booleans())
    def attached_segment(self, pair, kind, ns, inner):
        with self.real.attached(pair[0]):
            self.spec.push(pair[1])
            self.add_ns(kind, ns)
            if inner:
                child = self.begin("mtr", "m", True, True, None, {})
                self.end(child, {"records": 1})
            self.spec.pop(pair[1])

    @rule(ns=NS, base=NS, take=st.booleans())
    def charge(self, ns, base, take):
        if self.meter is not None:
            self.meter.charge_ns(ns)
            self.meter.charge_transfer("cxl", 64, base_ns=base)
            if take:
                self.meter.take()

    @rule(ns=NS)
    def tick(self, ns):
        if self.clock is not None and ns > 0.0:
            self.clock.now += ns

    @rule()
    def abandon_open(self):
        assert self.real.abandon_open() == self.spec.abandon_open()

    @rule()
    def clear(self):
        outcomes = []
        for tracer in (self.real, self.spec):
            try:
                tracer.clear()
                outcomes.append("cleared")
            except RuntimeError as error:
                outcomes.append(str(error))
        assert outcomes[0] == outcomes[1]

    @invariant()
    def same_everything(self):
        real, spec = self.real, self.spec
        assert (real.abandoned_total, real.dropped_costs) == (spec.abandoned_total, spec.dropped_costs)
        assert [s.span_id for s in real.attach_stack()] == [s["span_id"] for s in spec.stack]
        spans = real.spans()
        assert len(spans) == len(spec.spans)
        # Every handle ever returned, dropped rows included, reads as its spec twin.
        for view, data in list(zip(spans, spec.spans)) + self.all:
            assert [getattr(view, attr) for attr in ATTRS] == [data[attr] for attr in ATTRS]
            assert list(view.fields.items()) == list(data["fields"].items())
            costs = view.costs
            assert (costs if costs is None else list(costs.items())) == (
                data["costs"] if data["costs"] is None else list(data["costs"].items())
            )
        spec_spans = [SpecSpan(dict(data)) for data in spec.spans]
        mine, theirs = summarize(real), summarize(spec_spans)
        assert list(mine.buckets.items()) == list(theirs.buckets.items())
        assert mine.kinds() == theirs.kinds()
        assert (mine.txns, mine.total_ns) == (theirs.txns, theirs.total_ns)
        assert to_chrome_trace(real) == to_chrome_trace(spec_spans)
        for allow in (False, True):
            stats = check_span_invariants(real, allow_abandoned=allow)
            found = [(v.invariant, v.seq) for v in stats.violations]
            assert (stats.spans, stats.closed, stats.abandoned, found) == spec.check(allow)
            loaded = check_span_invariants(list(spans), allow_abandoned=allow)
            assert loaded.violations == stats.violations


SpanLogMachine.TestCase.settings = settings(
    max_examples=60, stateful_step_count=40, deadline=None
)
TestSpanLogAgainstSpec = SpanLogMachine.TestCase


def test_closed_spans_retain_at_most_160_bytes_each():
    """10,000 closed spans shaped like the sharing traffic (a txn root,
    page fixes with costs, an mtr, a flush with four fields, lock waits
    and settles) stay within 160 B a span; one object per span took 454."""
    meter = AccessMeter()
    pages = list(range(70000, 70050))
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracer = SpanTracer(clock=Clock())
        while len(tracer.log) < 10_000:
            txn = len(tracer.log)
            page = pages[txn % len(pages)]
            op = tracer.begin("txn", "point_update", push=False)
            tracer.record("lock_wait", "write", parent=op, ns=40.0, txn_id=txn)
            with tracer.attached(op):
                mtr = tracer.begin("mtr", "mtr", meter=meter)
                for _ in range(2):
                    fix = tracer.begin("page_fix", "get", meter=meter, page=page)
                    tracer.add_ns("cxl_access", 120.0)
                    tracer.end(fix)
                flush = tracer.begin("cache_flush", "clflush", meter=meter, node="n0", page=page)
                tracer.end(flush, lines=txn % 9, nbytes=(txn % 9) * 64)
                tracer.end(mtr, records=2)
            tracer.record("pipe_wait", "settle", parent=op, ns=3.0)
            tracer.end(op)
        del op, mtr, fix, flush
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    per_span = retained / len(tracer.log)
    assert per_span <= 160, f"{per_span:.0f} B per span"
