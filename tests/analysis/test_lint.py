"""Tests for the protocol-discipline lint (``python -m repro.analysis lint``).

One good/bad fixture pair per rule, the pragma suppressions, the CLI
entry points, and the registry inverse check: every name in
``REGISTERED_POINTS`` must actually be used by a crash point in ``src``
(and every literal use must be registered — that direction is REPRO002
itself).
"""

import re
import textwrap
from pathlib import Path

import pytest

from repro.analysis import __main__ as analysis_main
from repro.analysis.lint import Finding, lint_paths, lint_source, main
from repro.faults.points import REGISTERED_POINTS


def findings_of(source: str, path: str = "mod.py") -> list[Finding]:
    findings, _ = lint_source(textwrap.dedent(source), path)
    return findings


def rules_of(source: str, path: str = "mod.py") -> list[str]:
    return [finding.rule for finding in findings_of(source, path)]


# -- REPRO001: wall clock and global random --------------------------------


def test_repro001_flags_time_calls():
    assert rules_of(
        """
        import time
        def f():
            return time.perf_counter()
        """
    ) == ["REPRO001"]


def test_repro001_flags_aliased_time_import():
    assert rules_of(
        """
        import time as clock
        def f():
            return clock.monotonic_ns()
        """
    ) == ["REPRO001"]


def test_repro001_flags_from_import_at_import_site():
    findings = findings_of(
        """
        from time import perf_counter
        def f():
            return perf_counter()
        """
    )
    # Once at the import, once at the call.
    assert [f.rule for f in findings] == ["REPRO001", "REPRO001"]
    assert findings[0].line == 2


def test_repro001_flags_global_random_and_datetime_now():
    assert rules_of(
        """
        import random
        import datetime
        def f():
            random.shuffle([])
            return datetime.datetime.now()
        """
    ) == ["REPRO001", "REPRO001"]


def test_repro001_allows_seeded_random_and_sim_time():
    assert rules_of(
        """
        import random
        def f(sim):
            rng = random.Random(7)
            sim.timeout(100)
            return rng.randrange(10)
        """
    ) == []


def test_repro001_allows_unrelated_time_attribute():
    # An object attribute named .time() is not the time module.
    assert rules_of(
        """
        def f(sim):
            return sim.time()
        """
    ) == []


# -- REPRO002: crash-point registry ---------------------------------------


def test_repro002_flags_unregistered_point():
    assert rules_of(
        """
        from repro.faults.injector import crash_point
        def f():
            crash_point("bogus.not.registered")
        """
    ) == ["REPRO002"]


def test_repro002_allows_registered_point_and_collects_uses():
    findings, points = lint_source(
        textwrap.dedent(
            """
            from repro.faults.injector import crash_point
            def f(injector):
                crash_point("wal.append")
                injector.arm("recovery.done", 1)
            """
        ),
        "mod.py",
    )
    assert findings == []
    assert [name for _, name in points] == ["wal.append", "recovery.done"]


def test_repro002_ignores_dynamic_names():
    assert rules_of(
        """
        from repro.faults.injector import crash_point
        def f(name):
            crash_point(name)
        """
    ) == []


# -- REPRO003: flag writes outside coherency.py ---------------------------


def test_repro003_flags_raw_flag_write():
    bad = """
        def f(region, meta):
            region.write(meta.invalid_addr, b"\\x01")
        """
    assert rules_of(bad, "src/repro/core/sharing.py") == ["REPRO003"]


def test_repro003_allows_coherency_module_and_plain_writes():
    good = """
        def f(region, meta):
            region.write(meta.invalid_addr, b"\\x01")
        """
    assert rules_of(good, "src/repro/core/coherency.py") == []
    assert rules_of(
        """
        def f(region, offset):
            region.write(offset, b"data")
        """,
        "src/repro/core/sharing.py",
    ) == []


# -- REPRO004: pushed spans inside generators -----------------------------


def test_repro004_flags_pushed_span_in_generator():
    assert rules_of(
        """
        def step(spans, sim):
            span = spans.begin("txn", "update", meter=None)
            yield sim.timeout(1)
            spans.end(span)
        """
    ) == ["REPRO004"]


def test_repro004_allows_push_false_and_non_generators():
    assert rules_of(
        """
        def step(spans, sim):
            span = spans.begin("txn", "update", push=False)
            yield sim.timeout(1)
            spans.end(span)

        def plain(spans):
            return spans.begin("txn", "update", meter=None)
        """
    ) == []


def test_repro004_ignores_non_span_begin():
    # engine.begin() takes no span-shaped arguments.
    assert rules_of(
        """
        def step(engine, sim):
            txn = engine.begin()
            yield sim.timeout(1)
            txn.commit()
        """
    ) == []


def test_repro004_nested_def_is_its_own_frame():
    # The inner function is not a generator; the outer yield is not its.
    assert rules_of(
        """
        def outer(spans, sim):
            def inner():
                return spans.begin("txn", "t", meter=None)
            yield sim.timeout(1)
            inner()
        """
    ) == []


# -- REPRO005: exception swallowing ---------------------------------------


def test_repro005_flags_bare_except():
    assert rules_of(
        """
        def f():
            try:
                work()
            except:
                pass
        """
    ) == ["REPRO005"]


def test_repro005_flags_swallowed_base_exception_in_generator():
    assert rules_of(
        """
        def f(sim):
            try:
                yield sim.timeout(1)
            except BaseException:
                cleanup()
        """
    ) == ["REPRO005"]


def test_repro005_allows_reraise_and_plain_except():
    assert rules_of(
        """
        def f(sim):
            try:
                yield sim.timeout(1)
            except BaseException:
                cleanup()
                raise

        def g():
            try:
                work()
            except ValueError:
                pass
        """
    ) == []


# -- REPRO006: unsorted iteration over node/page/sharer collections --------

_SCHED_PATH = "src/repro/core/mod.py"


def test_repro006_flags_set_iteration_in_protocol_layer():
    assert rules_of(
        """
        class Directory:
            def __init__(self):
                self.sharer_nodes = set()
            def walk(self):
                for node_id in self.sharer_nodes:
                    use(node_id)
        """,
        path=_SCHED_PATH,
    ) == ["REPRO006"]


def test_repro006_flags_dict_keys_and_sees_through_list():
    assert rules_of(
        """
        pages = {}
        def a():
            for page_id in pages.keys():
                use(page_id)
        def b():
            return [p for p in list(pages)]
        """,
        path=_SCHED_PATH,
    ) == ["REPRO006", "REPRO006"]


def test_repro006_allows_sorted_and_membership():
    assert rules_of(
        """
        locked_pages: set[int] = set()
        def f():
            for page_id in sorted(locked_pages):
                use(page_id)
            return 3 in locked_pages
        """,
        path=_SCHED_PATH,
    ) == []


def test_repro006_ignores_unrelated_names_and_other_layers():
    # A set without node/page/sharer vocabulary is not flagged, and the
    # same hazard outside core/ha/baselines is out of scope.
    assert (
        rules_of(
            """
            seen = set()
            def f():
                for x in seen:
                    use(x)
            """,
            path=_SCHED_PATH,
        )
        == []
    )
    assert (
        rules_of(
            """
            nodes = set()
            def f():
                for x in nodes:
                    use(x)
            """,
            path="src/repro/bench/mod.py",
        )
        == []
    )


def test_repro006_respects_annotations():
    assert rules_of(
        """
        class Fleet:
            def __init__(self):
                self.node_births: dict[str, int] = {}
            def roll(self):
                return [self.node_births[k] for k in self.node_births]
        """,
        path="src/repro/ha/mod.py",
    ) == ["REPRO006"]


# -- REPRO007: region buffer stores mark their extent -----------------------


def test_repro007_flags_a_store_into_a_region_buffer_that_marks_nothing():
    findings = findings_of(
        """
        def write_back(region, at, data):
            region._data[at : at + 64] = data

        def mark_in_a_nested_frame(region, at):
            region._data[at] = 1
            def inner():
                region._written[at >> 16] = 1
            inner()
        """
    )
    assert [(f.line, f.rule) for f in findings] == [(3, "REPRO007"), (6, "REPRO007")]
    assert "region._data[...]" in findings[0].message


def test_repro007_allows_marked_stores_reads_and_a_pragma():
    assert rules_of(
        """
        def store(region, at, value):
            region._data[at] = value
            region._written[at >> 16] = 1

        def load(region, at):
            return region._data[at]

        def rebuild(region, at, chunk):
            # the caller marks every restored extent
            region._data[at : at + 64] = chunk  # repro-lint: allow(REPRO007)
        """
    ) == []


#: The four stores into a region buffer in ``src`` and the line each
#: marks its extent with.
_REAL_MARKS = (
    ("hardware/memory.py", "self._written[first : last + 1] = "),  # MemoryRegion.write
    ("hardware/memory.py", "region._written[offset >> 16] = 1"),  # fused MappedMemory.write
    ("hardware/cache.py", "region._written[at >> 16] = 1"),  # CpuCache write-back
    ("core/coherency.py", "region._written[addr >> 16] = 1"),  # flag store
)


@pytest.mark.parametrize("site, mark", _REAL_MARKS)
def test_repro007_passes_each_real_store_and_flags_it_without_its_mark(site, mark):
    path = Path(__file__).parents[2] / "src" / "repro" / site
    source = path.read_text()
    assert lint_source(source, str(path))[0] == []
    (line,) = [line for line in source.splitlines(keepends=True) if mark in line]
    unmarked, _ = lint_source(source.replace(line, ""), str(path))
    assert [finding.rule for finding in unmarked] == ["REPRO007"]


# -- pragmas ---------------------------------------------------------------


def test_line_pragma_suppresses_only_that_line():
    assert rules_of(
        """
        import time
        def f():
            a = time.perf_counter()  # repro-lint: allow(REPRO001)
            return time.perf_counter()
        """
    ) == ["REPRO001"]


def test_file_pragma_suppresses_whole_file_one_rule():
    assert rules_of(
        """
        # repro-lint: allow-file(REPRO001)
        import time
        def f():
            try:
                return time.perf_counter()
            except:
                pass
        """
    ) == ["REPRO005"]


# -- CLI and repo-wide state ----------------------------------------------


def test_src_tree_is_clean_and_registry_has_no_dead_entries():
    findings, points = lint_paths(["src"])
    assert findings == [], "\n".join(map(str, findings))
    used = {name for uses in points.values() for _, name in uses}
    # Inverse registry check: a registered point nobody uses is stale.
    assert used == REGISTERED_POINTS
    assert len(used) == 36


def test_src_has_no_wall_clock_exemption_and_no_frozen_reference():
    """Speed is judged by ``benchmarks/e2e``, and executable specs live
    beside the tests that use them (``tests/hardware/reference_models.py``):
    no file-wide REPRO001 exemption, ``_Ref*`` name or ``Spec*`` class may
    come to ``src/`` (a docstring may name a spec)."""
    src = Path(__file__).parents[2] / "src" / "repro"
    banned = re.compile(r"allow-file\(REPRO001\)|\b_Ref[A-Z]|\bclass Spec[A-Z]")
    offenders = [
        f"{path.relative_to(src)}:{number}"
        for path in sorted(src.rglob("*.py"))
        if path != src / "analysis" / "lint.py"  # the rule's own text
        for number, line in enumerate(path.read_text().splitlines(), 1)
        if banned.search(line)
    ]
    assert offenders == []


def test_main_exit_codes(tmp_path, capsys):
    good = tmp_path / "good.py"
    good.write_text("x = 1\n")
    assert main([str(good)]) == 0
    assert "1 files clean" in capsys.readouterr().out

    bad = tmp_path / "bad.py"
    bad.write_text("import time\ny = time.time()\n")
    assert main([str(bad)]) == 1
    out = capsys.readouterr()
    assert "REPRO001" in out.out
    assert "1 finding(s)" in out.err


def test_module_entry_point(capsys):
    with pytest.raises(SystemExit):
        analysis_main.main(["not-a-command"])
    assert analysis_main.main(["--help"]) == 0
    assert analysis_main.main(["lint", "src/repro/analysis"]) == 0
    assert "clean" in capsys.readouterr().out
