"""Docs-consistency check for documented CLI invocations.

Every ``python -m repro.*`` command the docs show must still parse.
README/EXPERIMENTS/PERFORMANCE/DESIGN drift silently otherwise — a
renamed experiment or a new required flag leaves the runbooks pointing
at commands that exit 2.

Each command goes through the ``build_parser()`` of the module it names
(``repro.X.__main__``), the same parser that CLI runs, so the check has
no grammar of its own to rot: add an experiment, scenario or option and
its docs mention is valid at once; rename one and CI goes red on the
stale mention. Names and values are checked by the parser's own
``choices=`` and ``type=``; argparse's error message is the finding.

Usage::

    python -m repro.analysis docs README.md EXPERIMENTS.md PERFORMANCE.md DESIGN.md

The same pass checks the registry sizes the docs quote (the lint rule
range, the number of named crash points) against the live registries.

Exit 1 lists every stale command with its file:line. A placeholder
(``<figure>``, ``<name>...``, ``...``) stands for any valid value: the
argument that consumes it reads it as its first choice, and a free-form
argument takes it as it is.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import re
import shlex
import sys
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Optional

__all__ = ["Finding", "extract_invocations", "check_text", "main"]


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


# -- validation against each CLI's own parser ----------------------------------------

_CLIS = ("repro.analysis", "repro.bench", "repro.ha", "repro.parallel")


def _placeholder_or(convert: Any, choices: Optional[Iterable[Any]]) -> Callable[[str], Any]:
    """An argparse ``type`` that converts like ``convert`` (``None``: keep
    the text), except that a placeholder becomes the first choice, or
    stays itself when the argument is free-form."""

    def typed(token: str) -> Any:
        if _PLACEHOLDER.match(token):
            return next(iter(choices)) if choices else token
        return token if convert is None else convert(token)

    typed.__name__ = getattr(convert, "__name__", "str")
    return typed


def _accept_placeholders(parser: argparse.ArgumentParser) -> argparse.ArgumentParser:
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for subparser in action.choices.values():
                _accept_placeholders(subparser)
        else:
            action.type = _placeholder_or(action.type, action.choices)
    return parser


def _parse(module: str, tokens: list[str]) -> Optional[str]:
    """Run ``tokens`` through ``module``'s own parser; return its error."""
    cli = importlib.import_module(f"{module}.__main__")
    parser = _accept_placeholders(cli.build_parser())
    stderr = io.StringIO()
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
            parser.parse_args(tokens)
    except SystemExit as exc:
        if exc.code:
            return stderr.getvalue().strip().splitlines()[-1].partition(": error: ")[2]
    return None


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
        try:
            tokens = shlex.split(command)
        except ValueError as exc:  # an unbalanced quote
            findings.append(Finding(path, lineno, command, str(exc)))
            continue
        module = tokens[2]
        if module not in _CLIS:
            problem: Optional[str] = (
                f"unknown CLI module {module!r} (known: {', '.join(_CLIS)})"
            )
        else:
            problem = _parse(module, tokens[3:])
        if problem is not None:
            findings.append(Finding(path, lineno, command, problem))
    return findings


def main(paths: list[str]) -> int:
    findings: list[Finding] = []
    checked = 0
    for path in paths:
        with open(path, encoding="utf-8") as handle:
            text = handle.read()
        checked += len(extract_invocations(text))
        findings.extend(check_text(path, text))
    for finding in findings:
        print(finding.render(), file=sys.stderr)
    print(
        f"docs check: {checked} invocation(s) across {len(paths)} file(s), "
        f"{len(findings)} stale",
        file=sys.stderr,
    )
    return 1 if findings else 0
