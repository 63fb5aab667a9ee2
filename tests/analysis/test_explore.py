"""CXL-Explore: the schedule explorer's own correctness contracts.

Four layers of evidence, mirroring DESIGN.md §14:

* **Closed forms.** On the k-writer toy programs the explorer must
  visit *exactly* the trace-theoretic minimal schedule count
  (``prod(g!) ** m`` for dependency groups ``g`` over ``m`` rounds):
  independent writers collapse to one schedule, fully-dependent
  writers to ``(k!)**m``, and nothing in between is approximate.
* **Soundness differential.** Exploring the flagship protocol config
  with pruning *disabled* (full naive enumeration) must reach exactly
  the same set of observable outcomes (committed history, per-node
  reads, verdicts) as the pruned exploration — pruning may collapse
  equivalent schedules, never lose behaviors.
* **Replay.** Every violation token must rebuild the offending
  schedule bit-for-bit in a fresh world: explore → token → replay
  reproduces identical oracle/MemSan verdicts.
* **Self-validation.** The PR 5 protocol mutations must each be found
  by bounded-budget exploration (the checker catches known-bad
  protocols, not just blesses good ones).

Clean-verdict summaries for one cxl and one rdma config are pinned
byte-stable under ``benchmarks/results/explore_golden.json``;
regenerate after an intentional protocol change with::

    PYTHONPATH=src python -m tests.analysis.test_explore
"""

import json
from pathlib import Path

import pytest

from repro.analysis import explore
from repro.analysis.explore import (
    CONFIGS,
    MUTATIONS,
    TOYS,
    ExploreError,
    decode_token,
    encode_token,
    explore_config,
    explore_mutations,
    main,
    replay_token,
    toy_min_traces,
    toy_naive_interleavings,
)

PINNED = (
    Path(__file__).parent.parent.parent
    / "benchmarks"
    / "results"
    / "explore_golden.json"
)

GOLDEN_CONFIGS = ("cxl-2p1pg", "rdma-2p1pg")


# -- closed forms -----------------------------------------------------------


def test_independent_writers_collapse_to_one_schedule():
    toy = TOYS["toy-indep"]
    assert toy_min_traces(toy) == 1
    report = explore_config("toy-indep")
    assert report.schedules == 1
    assert report.ok and not report.exhausted
    # ... while the unpruned interleaving count is in the thousands.
    assert toy_naive_interleavings(toy) == 3240


@pytest.mark.parametrize("name", sorted(TOYS))
def test_toy_visits_exactly_the_trace_minimal_count(name):
    toy = TOYS[name]
    report = explore_config(name)
    assert report.schedules == toy_min_traces(toy)
    assert report.ok and not report.exhausted
    assert report.naive_estimate == toy_naive_interleavings(toy)


def test_property_config_prunes_below_quarter_of_naive():
    # Happens-before pruning must keep its edge over naive enumeration: ≤ 25%.
    report = explore_config("toy-mixed")
    assert report.pruning_ratio <= 0.25
    assert report.schedules == 4  # (2! * 1!) ** 2


# -- protocol configs explore clean ----------------------------------------


@pytest.mark.parametrize("name", GOLDEN_CONFIGS)
def test_flagship_configs_explore_exhaustively_clean(name):
    report = explore_config(name)
    assert report.ok, report.violations
    assert not report.exhausted  # the space was finished, not budgeted out
    assert report.schedules >= 3
    assert report.pruned > 0
    assert report.decision_points >= 5


def test_crash_config_explores_clean_through_failover():
    report = explore_config("cxl-2p-crash")
    assert report.ok, report.violations
    assert not report.exhausted
    assert report.schedules >= 1


def test_the_crash_step_resolves_the_write_the_writer_died_in():
    # node0 dies right after logging its update of key 5: the crash step
    # finds that log record durable, so every schedule commits the value.
    histories = []
    explore_config(
        "cxl-2p-crash", on_schedule=lambda s: histories.append(dict(s.outcome[0]))
    )
    assert histories
    assert all(explore._W + 1 in history[5] for history in histories)


def test_pruned_and_naive_exploration_reach_identical_outcomes():
    # The soundness differential: sleep-set pruning may merge
    # equivalent schedules but must not lose any observable behavior.
    naive_outcomes, pruned_outcomes = set(), set()
    naive = explore_config(
        "cxl-2p1pg",
        sleep=False,
        on_schedule=lambda s: naive_outcomes.add(s.outcome),
    )
    pruned = explore_config(
        "cxl-2p1pg",
        on_schedule=lambda s: pruned_outcomes.add(s.outcome),
    )
    assert naive.ok and pruned.ok
    assert naive_outcomes == pruned_outcomes
    assert pruned.runs < naive.runs  # the reduction actually reduces


# -- replay tokens ----------------------------------------------------------


def test_token_roundtrip():
    token = encode_token("cxl-2p1pg", [0, 0, 1, 0, 2])
    assert token == "cxl-2p1pg:2=1,4=2"
    assert decode_token(token) == ("cxl-2p1pg", [0, 0, 1, 0, 2])
    assert decode_token("cxl-2p1pg:-") == ("cxl-2p1pg", [])
    assert encode_token("rdma-2p1pg", [0, 0]) == "rdma-2p1pg:-"


@pytest.mark.parametrize(
    "token", ["nosuchconfig:-", "cxl-2p1pg", "cxl-2p1pg:x=y", "cxl-2p1pg+bogus:-"]
)
def test_malformed_tokens_rejected(token):
    with pytest.raises(ExploreError):
        decode_token(token)


def test_replay_reproduces_identical_verdicts():
    # Explore, keep every completed schedule's token + outcome, then
    # replay a sample in fresh worlds and require the same outcome.
    seen = []
    explore_config(
        "cxl-2p1pg", on_schedule=lambda s: seen.append((s.choices(), s.outcome))
    )
    assert len(seen) >= 3
    for choices, outcome in seen[:: max(1, len(seen) // 4)]:
        verdict = replay_token(encode_token("cxl-2p1pg", choices))
        assert verdict["verdict"] == "clean"
        assert list(verdict["violations"]) == list(outcome[2])


# -- mutation self-validation ----------------------------------------------


def test_all_protocol_mutations_found_within_budget():
    tokens = explore_mutations("cxl-2p1pg", max_schedules=60)
    assert sorted(tokens) == sorted(MUTATIONS)
    # explore_mutations already verified each token replays to a
    # violation; double-check one end to end through the public API.
    verdict = replay_token(tokens["skip_flush"])
    assert verdict["verdict"] == "violation"
    assert any("unflushed-write-at-release" in m for m in verdict["violations"])


def test_mutation_escape_raises():
    with pytest.raises(ExploreError, match="unknown protocol mutation"):
        explore_config("cxl-2p1pg+bogus")


@pytest.mark.parametrize("mutation", ["skip_invalidate", "skip_flush"])
def test_a_mutation_on_a_config_without_its_switch_is_refused(mutation):
    with pytest.raises(ExploreError, match="mutations run on: cxl-2p-crash, cxl-2p1pg"):
        explore_config(f"rdma-2p1pg+{mutation}")


# -- CLI --------------------------------------------------------------------


def test_cli_list_and_quick_toy(capsys):
    assert main(["--list"]) == 0
    out = capsys.readouterr().out
    for name in sorted(TOYS) + sorted(CONFIGS):
        assert name in out
    assert main(["--config", "toy-mixed", "--quick"]) == 0
    out = capsys.readouterr().out
    assert "CLEAN" in out and "toy-mixed" in out


def test_cli_replay_and_json(tmp_path, capsys):
    out_path = tmp_path / "verdict.json"
    code = main(["--replay", "cxl-2p1pg:-", "--json", str(out_path)])
    assert code == 0
    doc = json.loads(out_path.read_text())
    assert doc["verdict"] == "clean" and doc["config"] == "cxl-2p1pg"
    capsys.readouterr()


def test_cli_mutations_quick(capsys):
    assert main(["--config", "cxl-2p1pg", "--mutations", "--quick"]) == 0
    out = capsys.readouterr().out
    assert "3/3 mutations detected" in out


@pytest.mark.parametrize("config", ["rdma-2p1pg", "all"])
def test_cli_mutations_on_a_config_without_switches_is_a_usage_error(config, capsys):
    assert main(["--config", config, "--mutations", "--quick"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: python -m repro.analysis explore")
    assert (
        f"error: argument --config: config {config!r} has no protocol mutation "
        "switches (mutations run on: cxl-2p-crash, cxl-2p1pg, cxl-3p2k)"
    ) in err


def test_cli_rejects_unknown_flag(capsys):
    assert main(["--frobnicate"]) == 2
    capsys.readouterr()


def test_cli_explicit_budget_survives_quick(monkeypatch, capsys):
    budgets = []

    def spy(name, max_schedules):
        budgets.append(max_schedules)
        return explore_config(name, max_schedules=max_schedules)

    monkeypatch.setattr(explore, "explore_config", spy)
    assert main(["--config", "toy-mixed", "--quick", "--budget", "20000"]) == 0
    assert main(["--config", "toy-mixed", "--quick"]) == 0
    assert main(["--config", "toy-mixed"]) == 0
    assert budgets == [20_000, 400, 20_000]
    capsys.readouterr()


# -- pinned goldens ---------------------------------------------------------


def _golden_json() -> str:
    payloads = [
        explore_config(name).to_payload() for name in GOLDEN_CONFIGS
    ]
    return json.dumps(payloads, sort_keys=True, indent=1) + "\n"


def generate(path: Path = PINNED) -> Path:
    path.parent.mkdir(exist_ok=True)
    path.write_text(_golden_json())
    return path


@pytest.mark.skipif(not PINNED.exists(), reason="pinned explore golden missing")
def test_explore_summaries_byte_identical_to_pinned():
    assert _golden_json().encode() == PINNED.read_bytes()


@pytest.mark.skipif(not PINNED.exists(), reason="pinned explore golden missing")
def test_pinned_summary_shape():
    docs = json.loads(PINNED.read_text())
    assert [d["config"] for d in docs] == list(GOLDEN_CONFIGS)
    for doc in docs:
        assert doc["ok"] is True and doc["exhausted"] is False
        assert doc["violations"] == []
        assert 0 < doc["schedules"] <= doc["runs"]
        assert doc["pruning_ratio"] < 0.25


if __name__ == "__main__":
    print(f"wrote {generate()}")
