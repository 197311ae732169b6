"""The wall-clock trace sink: off by default, attached from outside, and a
traced run decides exactly what an untraced one does."""

import io
import json

import pytest

from repro import ProtocolParams, create_backend
from repro.cli import main
from repro.core.trace import TraceSink
from repro.exp.results import collect_result
from repro.exp.spec import canonical_json

PARAMS = dict(
    n=24, m=2, lam=2, referee_size=6, users_per_shard=12,
    tx_per_committee=4, cross_shard_ratio=0.3, invalid_ratio=0.1,
)
BACKENDS = ("cycledger", "rapidchain", "omniledger_sim")


def _records(text):
    return [json.loads(line) for line in text.splitlines()]


@pytest.mark.parametrize("name", BACKENDS)
def test_a_traced_run_is_the_untraced_run_plus_one_record_per_span(name):
    params = ProtocolParams(seed=3, **PARAMS)
    plain, traced = create_backend(name, params), create_backend(name, params)
    assert plain.trace_sink is None
    out = io.StringIO()
    TraceSink(out).install(traced)
    rounds = 3
    records_of = [
        canonical_json(collect_result(ledger, ledger.run(rounds), {}, "k").to_dict())
        for ledger in (plain, traced)
    ]
    assert records_of[0] == records_of[1]
    records = _records(out.getvalue())
    phases = [f"phase:{phase}" for phase in traced.pipeline.names]
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
    ledger = create_backend("rapidchain", ProtocolParams(seed=3, **PARAMS))
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
