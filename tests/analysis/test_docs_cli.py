"""Docs-consistency checker: extraction, validation, and the real docs.

The last class is the actual gate: the three runbook documents must
contain zero stale invocations — the same check CI runs via
``python -m repro.analysis docs``.
"""

import argparse
import importlib
import pathlib

import pytest

from repro.analysis.docs_cli import _CLIS, check_text, extract_invocations

REPO = pathlib.Path(__file__).resolve().parents[2]


class TestExtraction:
    def test_fenced_block_lines_with_comments(self):
        text = "```bash\npython -m repro.bench fig7 --counters   # export\n```\n"
        assert extract_invocations(text) == [
            (2, "python -m repro.bench fig7 --counters")
        ]

    def test_inline_span_wrapping_across_a_newline(self):
        text = (
            "replay it with `python -m repro.parallel sweep\n"
            "--scenario workload --point mtr.write.applied --hit 3` later"
        )
        assert extract_invocations(text) == [
            (
                1,
                "python -m repro.parallel sweep --scenario workload "
                "--point mtr.write.applied --hit 3",
            )
        ]

    def test_prose_without_commands_is_empty(self):
        assert extract_invocations("nothing `here` at all\n") == []


class TestValidation:
    def test_registered_names_pass(self):
        text = (
            "```\n"
            "python -m repro.bench fig_scale --jobs 4\n"
            "python -m repro.ha --json sharded-failover\n"
            "python -m repro.parallel stress --system cxl --seeds 200\n"
            "python -m repro.analysis docs README.md\n"
            "```\n"
        )
        assert check_text("doc.md", text) == []

    def test_placeholders_are_accepted(self):
        assert check_text("doc.md", "see `python -m repro.bench <figure>`") == []

    @pytest.mark.parametrize(
        "command, fragment",
        [
            ("python -m repro.bench fig99", "unknown experiment 'fig99'"),
            ("python -m repro.ha not-a-scenario", "invalid choice: 'not-a-scenario'"),
            ("python -m repro.ha --jsonx all", "unrecognized arguments: --jsonx"),
            ("python -m repro.parallel sweep --scenario nope", "invalid choice: 'nope'"),
            ("python -m repro.parallel lint", "invalid choice: 'lint'"),
            ("python -m repro.oops lint", "unknown CLI module"),
            ("python -m repro.analysis explore --config nope", "config 'nope'"),
            ("python -m repro.analysis explore --replay 'nope:-'", "config 'nope'"),
            ("python -m repro.parallel stress --seeds many", "value: 'many'"),
            ("python -m repro.analysis explore --replay 'x:-", "No closing quotation"),
        ],
    )
    def test_drift_is_caught(self, command, fragment):
        findings = check_text("doc.md", f"```\n{command}\n```\n")
        assert len(findings) == 1
        assert fragment in findings[0].problem


def _leaf_parsers(parser, words=()):
    """Every (subcommand words, parser) that takes no further subcommand."""
    subcommands = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    if not subcommands:
        yield words, parser
    for action in subcommands:
        for name, subparser in action.choices.items():
            yield from _leaf_parsers(subparser, (*words, name))


def _grammars():
    """``python -m MODULE [SUBCOMMAND] <name>...`` -> the parser that reads the rest."""
    grammars = {}
    for module in _CLIS:
        cli = importlib.import_module(f"{module}.__main__")
        for words, parser in _leaf_parsers(cli.build_parser()):
            positionals = ["<name>" for a in parser._actions if not a.option_strings]
            grammars[" ".join(["python -m", module, *words, *positionals])] = parser
    return grammars


GRAMMARS = _grammars()


class TestTheDocsCheckIsTheParser:
    """The check holds no grammar of its own, so it cannot drift."""

    @pytest.mark.parametrize("prefix", GRAMMARS)
    def test_every_option_string_passes(self, prefix):
        parser = GRAMMARS[prefix]
        words = [prefix]
        for action in parser._actions:
            if isinstance(action, argparse._HelpAction):
                continue
            for option in action.option_strings:
                words += [option, "<value>"] if action.nargs != 0 else [option]
        helps = [
            f"{prefix} {option}"
            for action in parser._actions
            if isinstance(action, argparse._HelpAction)
            for option in action.option_strings
        ]
        commands = [" ".join(words), *helps]
        text = "```\n" + "\n".join(commands) + "\n```\n"
        assert check_text("doc.md", text) == []

    @pytest.mark.parametrize("prefix", GRAMMARS)
    def test_an_unknown_flag_is_one_finding_that_names_it(self, prefix):
        findings = check_text("doc.md", f"`{prefix} --no-such-flag`")
        assert len(findings) == 1
        assert "--no-such-flag" in findings[0].problem


class TestQuotedCounts:
    def test_live_registry_sizes_pass(self):
        from repro.analysis.lint import RULES
        from repro.faults.points import REGISTERED_POINTS

        text = (
            f"rules REPRO001–{RULES[-1]} and an injector with\n"
            f"{len(REGISTERED_POINTS)} named crash points"
        )
        assert check_text("doc.md", text) == []

    def test_stale_registry_sizes_are_caught_with_their_line(self):
        text = "lint (rules REPRO001-REPRO002)\n\nan injector with\n3 named crash points\n"
        findings = check_text("doc.md", text)
        assert [(f.line, f.invocation) for f in findings] == [
            (1, "REPRO001-REPRO002"),
            (4, "3 named crash points"),
        ]
        assert all(f.problem.startswith("stale count") for f in findings)


class TestRealDocs:
    def test_runbook_documents_are_consistent(self):
        findings = [
            finding
            for name in ("README.md", "EXPERIMENTS.md", "PERFORMANCE.md", "DESIGN.md")
            for finding in check_text(name, (REPO / name).read_text(encoding="utf-8"))
        ]
        assert findings == [], "\n".join(f.render() for f in findings)

    def test_docs_actually_document_the_clis(self):
        # The gate is meaningless on empty input: the three documents
        # must keep a healthy population of runnable commands.
        total = 0
        for name in ("README.md", "EXPERIMENTS.md", "PERFORMANCE.md"):
            text = (REPO / name).read_text(encoding="utf-8")
            total += len(extract_invocations(text))
        assert total >= 20
