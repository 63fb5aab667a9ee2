"""``python -m repro.ha``: one run per scenario, one report.

The JSON document of a scenario is the block the committed
``benchmarks/results/ha_obs_quick.json`` pins for it; text mode prints
the scenario summary (SLO verdict and health arcs included) and the
metrics dashboard.
"""

import json
from pathlib import Path

from repro.ha.__main__ import main

PINNED = (
    Path(__file__).parent.parent.parent / "benchmarks" / "results" / "ha_obs_quick.json"
)


def _documents(text: str) -> list[dict]:
    """The documents of a ``--json`` run, each followed by one newline."""
    decoder, docs, at = json.JSONDecoder(), [], 0
    while at < len(text):
        doc, at = decoder.raw_decode(text, at)
        docs.append(doc)
        at += 1
    return docs


def test_json_prints_the_pinned_document(capsys):
    assert main(["--json", "--quick", "failover-storm"]) == 0
    out = capsys.readouterr().out
    (doc,) = _documents(out)
    assert out == json.dumps(doc, sort_keys=True, indent=2) + "\n"
    (pinned,) = [d for d in _documents(PINNED.read_text()) if d["scenario"] == "failover-storm"]
    assert doc == pinned
    assert sorted(doc) == ["health", "metrics", "scenario", "seed", "slo", "timeline"]
    assert doc["timeline"]["scenario"] == "failover-storm"


def test_text_prints_summary_dashboard_and_health(capsys):
    assert main(["--quick", "failover-storm"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("scenario failover-storm (seed 17, 2 nodes)")
    assert "  slo: 92.857% good (1 bad / 14 served), 1 alert(s)" in lines
    assert (
        "  health node=node0: healthy @0.000ms -> wedged @1.600ms -> healthy @1.700ms"
        in lines
    )
    assert "  failover-storm metrics" in lines
    assert any(line.startswith("interval=100 us  scrapes=") for line in lines)
