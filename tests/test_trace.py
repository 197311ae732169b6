"""The wall-clock trace sink: off by default, attached from outside, and a
traced run decides exactly what an untraced one does."""

import io
import json

import pytest
from config_cube import Cell, check

from repro.cli import main
from repro.core.trace import TraceSink

BACKENDS = ("cycledger", "rapidchain", "omniledger_sim")


def _records(text):
    return [json.loads(line) for line in text.splitlines()]


@pytest.mark.parametrize("name", BACKENDS)
def test_a_traced_run_is_the_untraced_run_plus_one_record_per_span(name):
    _, run = check(Cell(name, seed=3, rounds=3), trace=True)
    records, rounds = _records(run.trace), len(run.reports)
    phases = [f"phase:{phase}" for phase in run.ledger.pipeline.names]
    spans = ["admit", *phases, "settle", "round"]
    assert [r["span"] for r in records] == spans * rounds
    assert [r["round"] for r in records] == [
        number for number in range(1, rounds + 1) for _ in spans
    ]
    for record in records:
        assert sorted(record) == ["gc", "round", "span", "wall_ms"]
        assert record["wall_ms"] >= 0.0
        assert len(record["gc"]) == 3 and all(n >= 0 for n in record["gc"])
    # A round holds its phases, admission and settlement.
    for number in range(1, rounds + 1):
        inside = [r for r in records if r["round"] == number]
        assert inside[-1]["wall_ms"] >= sum(r["wall_ms"] for r in inside[:-1])


def test_a_ledger_takes_one_sink():
    ledger = Cell("rapidchain").build()
    assert ledger.trace_sink is None
    TraceSink(io.StringIO()).install(ledger)
    with pytest.raises(ValueError, match="already installed"):
        TraceSink(io.StringIO()).install(ledger)


def test_cli_trace_leaves_the_run_record_as_it_was(tmp_path, capsys):
    args = [
        "run", "--backend", "rapidchain", "--n", "24", "--m", "2", "--lam", "2",
        "--referee", "6", "--users", "12", "--txs", "4", "--rounds", "2",
        "--seed", "0",
    ]
    plain, traced, trace = (tmp_path / f for f in ("a.json", "b.json", "t.jsonl"))
    assert main([*args, "--json", str(plain)]) == 0
    assert main([*args, "--json", str(traced), "--trace", str(trace)]) == 0
    assert plain.read_bytes() == traced.read_bytes()
    records = _records(trace.read_text())
    phases = [r for r in records if r["span"].startswith("phase:")]
    assert len(phases) == 2 * 4  # four rapidchain phases, two rounds
    assert f"trace -> {trace}" in capsys.readouterr().out
