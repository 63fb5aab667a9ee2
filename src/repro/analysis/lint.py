"""Protocol-discipline lint: ``python -m repro.analysis lint``.

AST-based checks for the repo-specific conventions that ruff cannot
know about.  Each rule has a stable id so findings can be suppressed
where a violation is intentional:

* ``REPRO001`` — no wall-clock or global-``random`` use in ``src/``:
  ``time.time`` / ``perf_counter`` / ``monotonic`` / ``datetime.now``
  and the ``random`` module-level functions break determinism, which
  every sweep and pinned snapshot depends on.  Seeded
  ``random.Random(...)`` instances are allowed.
* ``REPRO002`` — every literal crash-point name passed to
  ``crash_point(...)`` / ``FaultInjector.point(...)`` / ``arm(...)``
  must be in :data:`repro.faults.points.REGISTERED_POINTS`.
* ``REPRO003`` — no raw region ``.write(...)`` whose arguments mention
  coherency-flag addresses (``invalid_addr`` / ``removal_addr``)
  outside ``core/coherency.py``: flag bytes may only move through the
  ``set_remote_flag`` / ``FlagSlab`` helpers, which carry the metering
  and the memsan synchronization edges.
* ``REPRO004`` — no ``spans.begin(...)`` with the default ``push=True``
  inside a generator frame: the attach stack is per-tracer, so a span
  pushed before a ``yield`` leaks onto unrelated processes.  Generators
  must pass ``push=False`` and use ``PROBES.attached(...)``.
* ``REPRO005`` — no bare ``except:``, and ``except BaseException:``
  inside a generator must re-raise: swallowing ``GeneratorExit`` or an
  ``InjectedCrash`` inside sim-yielding code corrupts the sweep's
  crash semantics.
* ``REPRO006`` — in the protocol layers (``core/``, ``ha/``,
  ``baselines/``), no iteration over a ``set`` (or ``dict``/
  ``.keys()``) of node/page/sharer/lock state without ``sorted(...)``:
  set order for str keys depends on the process hash seed and dict
  insertion order on the schedule, so an unsorted walk diverges across
  the explorer's replay processes (``repro.analysis.explore``) and the
  parallel stress shards. Membership tests and ``.items()``/
  ``.values()`` aggregation are fine; only the *iteration order*
  hazard is flagged.
* ``REPRO007`` — a subscript store into ``<expr>._data[...]`` (a
  region's buffer) must sit in a function that also stores into
  ``<expr>._written[...]``: a region snapshot reads only the extents
  its written map marks, so an unmarked store can vanish from a world
  image. An intentional exception carries an ``allow`` pragma and a
  comment saying why.

Suppressions::

    something()  # repro-lint: allow(REPRO001)
    # repro-lint: allow-file(REPRO001)     (anywhere in the file)
"""

from __future__ import annotations

import ast
import pathlib
import re
import sys
from dataclasses import dataclass
from typing import Iterable, Optional, Union

from ..faults.points import REGISTERED_POINTS

__all__ = ["Finding", "lint_paths", "lint_source", "main"]

RULES = (
    "REPRO001", "REPRO002", "REPRO003", "REPRO004", "REPRO005", "REPRO006", "REPRO007"
)

_TIME_FORBIDDEN = frozenset(
    {
        "time",
        "time_ns",
        "monotonic",
        "monotonic_ns",
        "perf_counter",
        "perf_counter_ns",
        "process_time",
        "process_time_ns",
    }
)
_DATETIME_FORBIDDEN = frozenset({"now", "utcnow", "today"})
_RANDOM_ALLOWED = frozenset({"Random"})
_POINT_CALLS = frozenset({"crash_point", "point", "arm"})
_FLAG_ADDR_NAMES = frozenset(
    {"invalid_addr", "removal_addr", "invalid_addrs", "removal_addrs"}
)

# REPRO006: identifiers that look like shared node/page/sharer/lock
# state, and the source directories where their iteration order is a
# replay hazard.
_SCHED_VOCAB = re.compile(r"node|page|sharer|lock", re.IGNORECASE)
_SCHED_DIRS = re.compile(r"repro[\\/](core|ha|baselines)[\\/]")
_SET_CTORS = frozenset({"set", "frozenset"})
_DICT_CTORS = frozenset({"dict", "OrderedDict", "defaultdict", "Counter"})
_ITER_WRAPPERS = frozenset({"list", "tuple", "iter"})

_PRAGMA_LINE = re.compile(r"#\s*repro-lint:\s*allow\(([A-Z0-9,\s]+)\)")
_PRAGMA_FILE = re.compile(r"#\s*repro-lint:\s*allow-file\(([A-Z0-9,\s]+)\)")

_FuncNode = Union[ast.FunctionDef, ast.AsyncFunctionDef]


@dataclass(frozen=True)
class Finding:
    path: str
    line: int
    rule: str
    message: str

    def __str__(self) -> str:
        return f"{self.path}:{self.line}: {self.rule} {self.message}"


def _frame_nodes(fn: _FuncNode) -> Iterable[ast.AST]:
    """Every node of the function's own frame: nested functions and
    lambdas are frames of their own."""
    stack: list[ast.AST] = list(fn.body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        yield node
        stack.extend(ast.iter_child_nodes(node))


def _is_generator(fn: _FuncNode) -> bool:
    """True when the function's own frame contains a yield."""
    return any(isinstance(node, (ast.Yield, ast.YieldFrom)) for node in _frame_nodes(fn))


def _unmarked_data_stores(fn: _FuncNode) -> list[ast.Subscript]:
    """REPRO007: the ``<expr>._data[...] = ...`` stores of a frame that
    stores into no ``<expr>._written[...]``."""
    stores: dict[str, list[ast.Subscript]] = {"_data": [], "_written": []}
    for node in _frame_nodes(fn):
        if isinstance(node, ast.Subscript) and isinstance(node.ctx, ast.Store):
            if isinstance(node.value, ast.Attribute) and node.value.attr in stores:
                stores[node.value.attr].append(node)
    return [] if stores["_written"] else stores["_data"]


def _has_bare_raise(body: Iterable[ast.stmt]) -> bool:
    stack: list[ast.AST] = list(body)
    while stack:
        node = stack.pop()
        if isinstance(node, ast.Raise) and node.exc is None:
            return True
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        stack.extend(ast.iter_child_nodes(node))
    return False


def _last_ident(node: ast.AST) -> Optional[str]:
    """The trailing identifier of a Name/Attribute chain, else None."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def _ann_root(node: ast.AST) -> Optional[str]:
    """Leftmost name of an annotation: ``dict[int, set[str]]`` → dict."""
    while isinstance(node, ast.Subscript):
        node = node.value
    return _last_ident(node)


_SET_ANN = frozenset({"set", "Set", "frozenset", "FrozenSet", "MutableSet"})
_DICT_ANN = frozenset(
    {"dict", "Dict", "OrderedDict", "DefaultDict", "defaultdict", "Counter"}
)


def _collect_collections(tree: ast.AST) -> tuple[set[str], set[str]]:
    """Identifiers statically known to hold a set / dict anywhere in the
    module (assignment from a constructor or literal, or an annotation);
    attribute and plain names share one namespace (``self._sharers`` →
    ``_sharers``)."""
    sets: set[str] = set()
    dicts: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.AnnAssign):
            root = _ann_root(node.annotation)
            ident = _last_ident(node.target)
            if ident is None or root is None:
                continue
            if root in _SET_ANN:
                sets.add(ident)
            elif root in _DICT_ANN:
                dicts.add(ident)
        elif isinstance(node, ast.Assign):
            value = node.value
            kind: Optional[str] = None
            if isinstance(value, ast.Call) and isinstance(value.func, ast.Name):
                if value.func.id in _SET_CTORS:
                    kind = "set"
                elif value.func.id in _DICT_CTORS:
                    kind = "dict"
            elif isinstance(value, (ast.Set, ast.SetComp)):
                kind = "set"
            elif isinstance(value, (ast.Dict, ast.DictComp)):
                kind = "dict"
            if kind is None:
                continue
            for target in node.targets:
                ident = _last_ident(target)
                if ident is not None:
                    (sets if kind == "set" else dicts).add(ident)
    return sets, dicts


def _mentions_flag_addr(node: ast.AST) -> bool:
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and sub.id in _FLAG_ADDR_NAMES:
            return True
        if isinstance(sub, ast.Attribute) and sub.attr in _FLAG_ADDR_NAMES:
            return True
    return False


class _Checker(ast.NodeVisitor):
    def __init__(
        self,
        path: str,
        is_coherency: bool,
        sched_layer: bool = False,
        set_names: Optional[set[str]] = None,
        dict_names: Optional[set[str]] = None,
    ) -> None:
        self.path = path
        self.is_coherency = is_coherency
        self.sched_layer = sched_layer
        self._set_names = set_names or set()
        self._dict_names = dict_names or set()
        self.findings: list[Finding] = []
        self.crash_points: list[tuple[int, str]] = []
        self._fn_stack: list[_FuncNode] = []
        self._gen_stack: list[bool] = []
        # name -> module it aliases ("time", "random", "datetime")
        self._modules: dict[str, str] = {}
        # name -> (module, original name) for from-imports
        self._from: dict[str, tuple[str, str]] = {}

    # -- helpers ---------------------------------------------------------

    def _flag(self, node: ast.AST, rule: str, message: str) -> None:
        self.findings.append(
            Finding(self.path, getattr(node, "lineno", 0), rule, message)
        )

    def _in_generator(self) -> bool:
        return bool(self._gen_stack and self._gen_stack[-1])

    # -- imports (REPRO001) ---------------------------------------------

    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            root = alias.name.split(".")[0]
            if root in ("time", "random", "datetime"):
                self._modules[alias.asname or root] = root
        self.generic_visit(node)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        if node.module in ("time", "random", "datetime"):
            for alias in node.names:
                self._from[alias.asname or alias.name] = (node.module, alias.name)
                if node.module == "time" and alias.name in _TIME_FORBIDDEN:
                    self._flag(
                        node,
                        "REPRO001",
                        f"wall-clock import 'from time import {alias.name}' "
                        f"breaks determinism",
                    )
                elif node.module == "random" and alias.name not in _RANDOM_ALLOWED:
                    self._flag(
                        node,
                        "REPRO001",
                        f"global-random import 'from random import {alias.name}'"
                        f" breaks determinism (use a seeded random.Random)",
                    )
        self.generic_visit(node)

    # -- functions (generator tracking) ----------------------------------

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._visit_fn(node)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._visit_fn(node)

    def _visit_fn(self, node: _FuncNode) -> None:
        for store in _unmarked_data_stores(node):
            self._flag(
                store,
                "REPRO007",
                f"store into {ast.unparse(store.value)}[...] in a function that "
                "marks no ._written extent: a region snapshot reads only marked "
                "extents, so the store can vanish from a world image",
            )
        self._fn_stack.append(node)
        self._gen_stack.append(_is_generator(node))
        self.generic_visit(node)
        self._gen_stack.pop()
        self._fn_stack.pop()

    # -- calls (REPRO001/002/003/004) ------------------------------------

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        if isinstance(func, ast.Attribute):
            self._check_attr_call(node, func)
        elif isinstance(func, ast.Name):
            self._check_name_call(node, func)
        self.generic_visit(node)

    def _check_attr_call(self, node: ast.Call, func: ast.Attribute) -> None:
        attr = func.attr
        # REPRO001: time.X() / random.X() / datetime.datetime.now()
        if isinstance(func.value, ast.Name):
            module = self._modules.get(func.value.id)
            if module == "time" and attr in _TIME_FORBIDDEN:
                self._flag(node, "REPRO001", f"wall-clock call time.{attr}()")
            elif module == "random" and attr not in _RANDOM_ALLOWED:
                self._flag(
                    node,
                    "REPRO001",
                    f"global-random call random.{attr}() (use a seeded "
                    f"random.Random instance)",
                )
            else:
                origin = self._from.get(func.value.id)
                if origin == ("datetime", "datetime") and attr in _DATETIME_FORBIDDEN:
                    self._flag(node, "REPRO001", f"wall-clock call datetime.{attr}()")
        elif (
            isinstance(func.value, ast.Attribute)
            and func.value.attr == "datetime"
            and isinstance(func.value.value, ast.Name)
            and self._modules.get(func.value.value.id) == "datetime"
            and attr in _DATETIME_FORBIDDEN
        ):
            self._flag(node, "REPRO001", f"wall-clock call datetime.datetime.{attr}()")
        # REPRO002: injector.point("...") / injector.arm("...")
        if attr in _POINT_CALLS:
            self._check_point_name(node)
        # REPRO003: raw .write(...) touching flag addresses
        if attr == "write" and not self.is_coherency:
            subtrees: list[ast.AST] = list(node.args)
            subtrees.extend(kw.value for kw in node.keywords)
            if any(_mentions_flag_addr(sub) for sub in subtrees):
                self._flag(
                    node,
                    "REPRO003",
                    "raw region write to a coherency-flag address; flag "
                    "bytes may only move through core/coherency.py helpers",
                )
        # REPRO004: spans .begin(...) with push=True inside a generator
        if attr == "begin" and self._in_generator():
            self._check_span_begin(node)

    def _check_name_call(self, node: ast.Call, func: ast.Name) -> None:
        if func.id == "crash_point":
            self._check_point_name(node)
        origin = self._from.get(func.id)
        if origin is not None:
            module, original = origin
            if module == "time" and original in _TIME_FORBIDDEN:
                self._flag(node, "REPRO001", f"wall-clock call {func.id}()")
            elif module == "random" and original not in _RANDOM_ALLOWED:
                self._flag(node, "REPRO001", f"global-random call {func.id}()")

    def _check_point_name(self, node: ast.Call) -> None:
        if not node.args:
            return
        first = node.args[0]
        if not (isinstance(first, ast.Constant) and isinstance(first.value, str)):
            return
        name = first.value
        self.crash_points.append((node.lineno, name))
        if name not in REGISTERED_POINTS:
            self._flag(
                node,
                "REPRO002",
                f"crash point {name!r} is not in "
                f"repro.faults.points.REGISTERED_POINTS",
            )

    def _check_span_begin(self, node: ast.Call) -> None:
        # Only span-tracer begins: begin(kind, name, ...) with two
        # positional args or span keywords — not e.g. engine.begin().
        if len(node.args) < 2 and not any(
            kw.arg in ("meter", "parent", "push") for kw in node.keywords
        ):
            return
        push: Optional[ast.expr] = None
        if len(node.args) >= 5:
            push = node.args[4]
        for kw in node.keywords:
            if kw.arg == "push":
                push = kw.value
        if (
            push is not None
            and isinstance(push, ast.Constant)
            and push.value is False
        ):
            return
        self._flag(
            node,
            "REPRO004",
            "span begin() inside a generator must pass push=False and "
            "use PROBES.attached(...): a pushed span leaks across yields",
        )

    # -- iteration order (REPRO006) --------------------------------------

    def visit_For(self, node: ast.For) -> None:
        self._check_iter_order(node.iter)
        self.generic_visit(node)

    def _visit_comp(self, node: ast.AST) -> None:
        for gen in getattr(node, "generators", ()):
            self._check_iter_order(gen.iter)
        self.generic_visit(node)

    visit_ListComp = _visit_comp
    visit_SetComp = _visit_comp
    visit_DictComp = _visit_comp
    visit_GeneratorExp = _visit_comp

    def _check_iter_order(self, expr: ast.AST) -> None:
        if not self.sched_layer:
            return
        # list()/tuple()/iter() preserve order: see through them.
        while (
            isinstance(expr, ast.Call)
            and isinstance(expr.func, ast.Name)
            and expr.func.id in _ITER_WRAPPERS
            and len(expr.args) == 1
        ):
            expr = expr.args[0]
        if (
            isinstance(expr, ast.Call)
            and isinstance(expr.func, ast.Name)
            and expr.func.id == "sorted"
        ):
            return
        if (
            isinstance(expr, ast.Call)
            and isinstance(expr.func, ast.Attribute)
            and expr.func.attr == "keys"
            and not expr.args
        ):
            ident = _last_ident(expr.func.value)
            if ident is not None and _SCHED_VOCAB.search(ident):
                self._flag(
                    expr,
                    "REPRO006",
                    f"unsorted iteration over {ident}.keys(): dict order is "
                    f"schedule-dependent; wrap in sorted(...) so explorer "
                    f"replays and parallel shards stay deterministic",
                )
            return
        ident = _last_ident(expr)
        if ident is None or not _SCHED_VOCAB.search(ident):
            return
        if ident in self._set_names:
            kind = "set"
        elif ident in self._dict_names:
            kind = "dict"
        else:
            return
        self._flag(
            expr,
            "REPRO006",
            f"unsorted iteration over {kind} {ident!r} (node/page/sharer "
            f"state): {kind} order is schedule- and hash-seed-dependent; "
            f"wrap in sorted(...) so explorer replays and parallel shards "
            f"stay deterministic",
        )

    # -- except handlers (REPRO005) --------------------------------------

    def visit_ExceptHandler(self, node: ast.ExceptHandler) -> None:
        if node.type is None:
            self._flag(
                node,
                "REPRO005",
                "bare 'except:' swallows GeneratorExit/InjectedCrash; name "
                "the exception (and re-raise BaseException in generators)",
            )
        elif (
            isinstance(node.type, ast.Name)
            and node.type.id == "BaseException"
            and self._in_generator()
            and not _has_bare_raise(node.body)
        ):
            self._flag(
                node,
                "REPRO005",
                "'except BaseException:' in a generator must re-raise "
                "(bare 'raise') so crash injection propagates",
            )
        self.generic_visit(node)


def _pragmas(source: str) -> tuple[set[str], dict[int, set[str]]]:
    file_rules: set[str] = set()
    line_rules: dict[int, set[str]] = {}
    for lineno, text in enumerate(source.splitlines(), start=1):
        match = _PRAGMA_FILE.search(text)
        if match:
            file_rules.update(r.strip() for r in match.group(1).split(","))
            continue
        match = _PRAGMA_LINE.search(text)
        if match:
            rules = {r.strip() for r in match.group(1).split(",")}
            line_rules.setdefault(lineno, set()).update(rules)
    return file_rules, line_rules


def lint_source(
    source: str, path: str = "<string>"
) -> tuple[list[Finding], list[tuple[int, str]]]:
    """Lint one module's source; returns (findings, crash-point literals)."""
    is_coherency = path.replace("\\", "/").endswith("core/coherency.py")
    tree = ast.parse(source, filename=path)
    sched_layer = bool(_SCHED_DIRS.search(path))
    set_names, dict_names = (
        _collect_collections(tree) if sched_layer else (set(), set())
    )
    checker = _Checker(path, is_coherency, sched_layer, set_names, dict_names)
    checker.visit(tree)
    file_rules, line_rules = _pragmas(source)
    findings = [
        finding
        for finding in checker.findings
        if finding.rule not in file_rules
        and finding.rule not in line_rules.get(finding.line, ())
    ]
    findings.sort(key=lambda f: (f.path, f.line, f.rule))
    return findings, checker.crash_points


def _iter_files(paths: Iterable[str]) -> list[pathlib.Path]:
    out: list[pathlib.Path] = []
    for raw in paths:
        path = pathlib.Path(raw)
        if path.is_dir():
            out.extend(sorted(path.rglob("*.py")))
        else:
            out.append(path)
    return out


def lint_paths(
    paths: Iterable[str],
) -> tuple[list[Finding], dict[str, list[tuple[int, str]]]]:
    """Lint every ``.py`` file under the given paths."""
    findings: list[Finding] = []
    points: dict[str, list[tuple[int, str]]] = {}
    for path in _iter_files(paths):
        file_findings, file_points = lint_source(path.read_text(), str(path))
        findings.extend(file_findings)
        if file_points:
            points[str(path)] = file_points
    return findings, points


def main(argv: list[str]) -> int:
    paths = argv or ["src"]
    findings, points = lint_paths(paths)
    for finding in findings:
        print(finding)
    n_files = len(_iter_files(paths))
    n_points = sum(len(v) for v in points.values())
    if findings:
        print(
            f"repro-lint: {len(findings)} finding(s) in {n_files} files",
            file=sys.stderr,
        )
        return 1
    print(
        f"repro-lint: {n_files} files clean "
        f"({n_points} registered crash-point uses, rules {', '.join(RULES)})"
    )
    return 0
