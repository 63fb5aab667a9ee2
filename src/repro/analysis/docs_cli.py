"""Docs-consistency check for documented CLI invocations.

Every ``python -m repro.*`` command the docs show must still exist:
the module, its subcommand / experiment / scenario names, and its
flags. README/EXPERIMENTS/PERFORMANCE/DESIGN drift silently otherwise — a
renamed experiment or a new required flag leaves the runbooks pointing
at commands that exit 2.

The vocabularies are imported from the CLIs' own registries
(``repro.bench.__main__.EXPERIMENTS``, ``repro.ha.scenarios.SCENARIOS``,
``repro.faults.sweep.SCENARIOS``), so the check tracks the code
with no allowlist of its own to rot: add an experiment and its docs
mention is immediately valid; rename one and CI goes red on the stale
mention.

Usage::

    python -m repro.analysis docs README.md EXPERIMENTS.md PERFORMANCE.md DESIGN.md

The same pass checks the registry sizes the docs quote (the lint rule
range, the number of named crash points) against the live registries.

Exit 1 lists every unknown module, name, or flag with its file:line.
Placeholders in angle brackets (``<figure>``, ``<name>...``) and
ellipses are accepted anywhere a real name would be.
"""

from __future__ import annotations

import re
import sys
from dataclasses import dataclass
from typing import Callable, Optional

__all__ = ["Finding", "extract_invocations", "check_text", "check_files", "main"]


@dataclass(frozen=True)
class Finding:
    """One stale documented invocation."""

    path: str
    line: int
    invocation: str
    problem: str

    def render(self) -> str:
        return f"{self.path}:{self.line}: {self.problem}\n    {self.invocation}"


_FENCE = re.compile(r"^(```|~~~)")
_INLINE_SPAN = re.compile(r"`([^`]+)`", re.DOTALL)
_START = re.compile(r"python -m repro[.\w]*")
_PLACEHOLDER = re.compile(r"^<[^<>]+>(\.\.\.)?$|^\.\.\.$")


def extract_invocations(text: str) -> list[tuple[int, str]]:
    """Pull every ``python -m repro.*`` command out of markdown.

    Covers fenced code blocks (one command per line, trailing ``#``
    comments stripped) and inline backtick spans, including spans that
    wrap across a newline mid-command. Returns ``(line, command)``
    pairs with whitespace collapsed.
    """
    out: list[tuple[int, str]] = []
    lines = text.split("\n")
    in_fence = False
    prose: list[str] = []  # non-fenced lines, position-preserved
    for lineno, line in enumerate(lines, start=1):
        if _FENCE.match(line.strip()):
            in_fence = not in_fence
            prose.append("")
            continue
        if not in_fence:
            prose.append(line)
            continue
        prose.append("")
        match = _START.search(line)
        if match is None:
            continue
        command = line[match.start() :]
        command = re.split(r"\s#", command)[0]
        out.append((lineno, " ".join(command.split())))
    # Inline spans over the prose remainder; DOTALL lets a span close on
    # a later line, which is exactly the wrapped-command case.
    prose_text = "\n".join(prose)
    for span in _INLINE_SPAN.finditer(prose_text):
        match = _START.search(span.group(1))
        if match is None:
            continue
        lineno = prose_text.count("\n", 0, span.start()) + 1
        out.append((lineno, " ".join(span.group(1)[match.start() :].split())))
    return sorted(out)


# -- per-module validators -------------------------------------------------------------


def _is_placeholder(token: str) -> bool:
    return _PLACEHOLDER.match(token) is not None


def _scan(
    tokens: list[str],
    names: set[str],
    flags: dict[str, bool],
    what: str,
    free_positionals: bool = False,
) -> Optional[str]:
    """Generic token walk: flags against ``flags`` (value means the
    flag consumes the next token), positionals against ``names``."""
    index = 0
    while index < len(tokens):
        token = tokens[index]
        if _is_placeholder(token):
            index += 1
            continue
        if token.startswith("-"):
            if token not in flags:
                return f"unknown {what} flag {token!r}"
            if flags[token]:
                index += 1  # the flag's value
            index += 1
            continue
        if not free_positionals and token not in names:
            return f"unknown {what} {token!r} (known: {', '.join(sorted(names))})"
        index += 1
    return None


def _check_bench(tokens: list[str]) -> Optional[str]:
    from ..bench.__main__ import EXPERIMENTS

    names = set(EXPERIMENTS) | {"list", "all"}
    flags = {
        "-h": False,
        "--help": False,
        "--counters": False,
        "--spans": False,
        "--memsan": False,
        "--ha": False,
        "--jobs": True,
        "--metrics": False,
    }
    return _scan(tokens, names, flags, "bench experiment")


def _check_parallel(tokens: list[str]) -> Optional[str]:
    from ..faults.sweep import SCENARIOS

    if not tokens or tokens[0] not in ("sweep", "stress"):
        return "repro.parallel needs a 'sweep' or 'stress' subcommand"
    if tokens[0] == "sweep":
        flags = {
            "--scenario": True,
            "--seed": True,
            "--max-hits": True,
            "--limit": True,
            "--point": True,
            "--hit": True,
            "--json": True,
        }
        if "--scenario" in tokens:
            value = tokens[tokens.index("--scenario") + 1]
            if value not in SCENARIOS and value != "all" and not _is_placeholder(value):
                return f"unknown sweep scenario {value!r}"
    else:
        flags = {
            "--system": True,
            "--seeds": True,
            "--shard-size": True,
            "--jobs": True,
            "--base-seed": True,
            "--json": True,
        }
        if "--system" in tokens:
            value = tokens[tokens.index("--system") + 1]
            if value not in ("cxl", "rdma") and not _is_placeholder(value):
                return f"unknown stress system {value!r}"
    return _scan(tokens[1:], set(), flags, "parallel", free_positionals=True)


def _check_ha(tokens: list[str]) -> Optional[str]:
    from ..ha.scenarios import SCENARIOS

    names = set(SCENARIOS) | {"all"}
    flags = {"--seed": True, "--quick": False, "--json": False}
    return _scan(tokens, names, flags, "ha scenario")


def _check_obs(tokens: list[str]) -> Optional[str]:
    from ..ha.scenarios import SCENARIOS

    names = set(SCENARIOS) | {"all"}
    flags = {
        "--seed": True,
        "--interval-ns": True,
        "--quick": False,
        "--json": False,
    }
    return _scan(tokens, names, flags, "obs scenario")


def _check_analysis(tokens: list[str]) -> Optional[str]:
    if not tokens or tokens[0] not in ("lint", "docs", "explore"):
        return "repro.analysis needs a 'lint', 'docs' or 'explore' subcommand"
    if tokens[0] != "explore":
        return None  # the rest are free-form paths
    from .explore import CONFIGS, EXPLORE_FLAGS, MUTATIONS, TOYS

    problem = _scan(tokens[1:], set(), EXPLORE_FLAGS, "explore")
    if problem is not None:
        return problem
    names = set(CONFIGS) | set(TOYS) | {"all"}
    names |= {f"{c}+{m}" for c in CONFIGS for m in MUTATIONS}
    if "--config" in tokens:
        value = tokens[tokens.index("--config") + 1]
        if value not in names and not _is_placeholder(value):
            return f"unknown explore config {value!r}"
    if "--replay" in tokens:
        # A replay token is "<config[+mutation]>:<choices>", often quoted.
        value = tokens[tokens.index("--replay") + 1].strip("'\"")
        base = value.partition(":")[0]
        if base not in names and not _is_placeholder(value):
            return f"unknown explore config in replay token {value!r}"
    return None


_VALIDATORS: dict[str, Callable[[list[str]], Optional[str]]] = {
    "repro.bench": _check_bench,
    "repro.parallel": _check_parallel,
    "repro.ha": _check_ha,
    "repro.obs": _check_obs,
    "repro.analysis": _check_analysis,
}


def _check_counts(path: str, text: str) -> list[Finding]:
    """Registry sizes the docs quote, against the live registries."""
    from ..faults.points import REGISTERED_POINTS
    from .lint import RULES

    quoted = [
        (r"REPRO001\s*[–-]\s*REPRO(\d+)", int(RULES[-1][len("REPRO"):]), "lint rules"),
        (r"(\d+)\s+named\s+crash\s+points", len(REGISTERED_POINTS), "crash points"),
    ]
    return [
        Finding(
            path,
            text.count("\n", 0, match.start()) + 1,
            " ".join(match.group(0).split()),
            f"stale count: the registry has {live} {what}",
        )
        for pattern, live, what in quoted
        for match in re.finditer(pattern, text)
        if int(match.group(1)) != live
    ]


def check_text(path: str, text: str) -> list[Finding]:
    """Validate every invocation (and quoted registry size) in one document."""
    findings = _check_counts(path, text)
    for lineno, command in extract_invocations(text):
        tokens = command.split()
        # "python -m repro.x ..." — tolerate a leading env assignment
        # having been stripped by extraction starting at "python".
        if len(tokens) < 3 or tokens[0] != "python" or tokens[1] != "-m":
            continue
        module = tokens[2]
        validator = _VALIDATORS.get(module)
        if validator is None:
            findings.append(
                Finding(
                    path,
                    lineno,
                    command,
                    f"unknown CLI module {module!r} "
                    f"(known: {', '.join(sorted(_VALIDATORS))})",
                )
            )
            continue
        problem = validator(tokens[3:])
        if problem is not None:
            findings.append(Finding(path, lineno, command, problem))
    return findings


def check_files(paths: list[str]) -> list[Finding]:
    findings: list[Finding] = []
    for path in paths:
        with open(path, encoding="utf-8") as handle:
            findings.extend(check_text(path, handle.read()))
    return findings


def main(argv: list[str]) -> int:
    if not argv or argv[0] in ("-h", "--help"):
        print("usage: python -m repro.analysis docs FILE.md [FILE.md...]")
        return 0 if argv else 2
    findings: list[Finding] = []
    checked = 0
    for path in argv:
        with open(path, encoding="utf-8") as handle:
            text = handle.read()
        checked += len(extract_invocations(text))
        findings.extend(check_text(path, text))
    for finding in findings:
        print(finding.render(), file=sys.stderr)
    print(
        f"docs check: {checked} invocation(s) across {len(argv)} file(s), "
        f"{len(findings)} stale",
        file=sys.stderr,
    )
    return 1 if findings else 0
