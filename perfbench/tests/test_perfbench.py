"""Self-tests of the benchmark (``python -m pytest perfbench/tests -q``).

Not part of the tier-1 suite: the smoke run alone takes most of a minute.
"""

import json
import os
import re
import subprocess
import sys
import time

import pytest

from perfbench import __main__ as cli
from perfbench import adapter, bench, metrics, tracing
from perfbench.workloads import BY_NAME, WORKLOADS

ROOT = bench.ROOT
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def load_manifest():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def test_benchmark_json_is_the_manifest_and_fits_the_contract():
    manifest = load_manifest()
    assert manifest == metrics.manifest()
    assert 2 <= len(manifest["workloads"]) <= 8
    assert 1 <= len(manifest["end_to_end"]) <= 16
    assert 1 <= len(manifest["per_layer"]) <= 128
    assert 1 <= manifest["run_seconds"] <= 60
    names = [
        entry["name"]
        for key in ("workloads", "end_to_end", "per_layer")
        for entry in manifest[key]
    ]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    for entry in manifest["end_to_end"] + manifest["per_layer"]:
        assert UNIT.match(entry["unit"]) and entry["better"] in ("lower", "higher")
    assert all(0 < e["bound"] <= 0.25 for e in manifest["end_to_end"])
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in manifest["workloads"])
    setup = next(e for e in manifest["end_to_end"] if e["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(e["bound"] for e in manifest["end_to_end"])


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    out_dir = str(tmp_path_factory.mktemp("smoke"))
    began = time.monotonic()
    result = bench.run_protocol(
        [w.name for w in WORKLOADS], repeats=1, traced=True, smoke=True, out_dir=out_dir
    )
    return result, out_dir, time.monotonic() - began


def test_smoke_produces_every_declared_name_for_every_workload(smoke):
    result, _out_dir, elapsed = smoke
    # sized for < 60 s on a quiet host; the shared one has 2x slow phases
    assert elapsed < 120.0
    assert result["claim"] is None
    manifest = load_manifest()
    for workload in manifest["workloads"]:
        w = result["workloads"][workload["name"]]
        # no failures also means: chain.verify() held, no invariant was
        # violated and the plain, span and profile passes share one digest
        assert w["failures"] == []
        for traced, key in ((False, "end_to_end"), (True, "per_layer")):
            line = bench.driver_line(result, workload["name"], traced)
            assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 1
            assert list(line["metrics"]) == [m["name"] for m in manifest[key]]
            for entry in manifest[key]:
                cell = line["metrics"][entry["name"]]
                assert cell["unit"] == entry["unit"]
                assert isinstance(cell["value"], float)
        assert f"packed={w['packed']} sim_digest={w['sim_digest']}" in bench.sim_line(
            result, workload["name"]
        )
        assert all(cell["value"] > 0 for cell in w["end_to_end"].values())
        assert all(w["per_layer"][m.name] is not None for m in metrics.per_layer())


def test_traced_passes_add_up(smoke):
    result, _out_dir, _elapsed = smoke
    for name, w in result["workloads"].items():
        layer = w["per_layer"]
        assert w["profile_total_s"] == pytest.approx(w["profile_wall_s"], rel=0.02), name
        layers = sum(layer[f"self_ms.{x}"] for x in metrics.LAYERS)
        assert layer["self_ms.other"] <= 0.10 * layers, name
        # recording the spans themselves must stay far below the 5% limit
        assert w["span_cost_share"] < 0.01, name


def test_hooks_are_reinstalled_after_the_soak_checkpoint_restore(smoke):
    result, out_dir, _elapsed = smoke
    rounds = result["workloads"]["soak"]["rounds"]
    with open(os.path.join(out_dir, "trace", "soak.spans.jsonl"), encoding="utf-8") as fh:
        spans = [json.loads(line) for line in fh]
    by_round = {r: {s["name"] for s in spans if s["round"] == r} for r in range(rounds)}
    assert sum(s["name"] == "checkpoint.load" for s in spans) == BY_NAME["soak"].checkpoints
    for index in range(rounds):
        assert {"round", "phase.config", "phase.block", "net.run",
                "mempool.admit", "mempool.settle"} <= by_round[index], index
    assert all(s["end"] is not None and s["end"] >= s["start"] for s in spans)
    round_ids = {s["id"] for s in spans if s["name"] == "round"}
    assert all(s["parent"] in round_ids for s in spans if s["name"].startswith("phase."))


def test_sim_digest_repeats_exactly(tmp_path):
    workload = BY_NAME["msg_bound"]
    first, second = (
        bench.run_child(workload, 3, 2, 0, "plain", str(tmp_path)) for _ in range(2)
    )
    assert first["failures"] == second["failures"] == []
    assert first["sim_digest"] == second["sim_digest"]
    other_seed = bench.run_child(workload, 4, 2, 0, "plain", str(tmp_path))
    assert other_seed["sim_digest"] != first["sim_digest"]


class _Pipeline:
    names = ("only",)

    def add_phase_hook(self, name, when, hook):
        pass


class _Mempool:
    def admit(self):
        return "admitted"


class _LedgerWithoutSettle:
    """A ledger whose ``mempool.settle`` and ``net`` no longer exist."""

    pipeline = _Pipeline()
    mempool = _Mempool()


def test_tracer_skips_a_missing_target_and_reports_null():
    recorder = tracing.SpanRecorder()
    ledger = _LedgerWithoutSettle()
    recorder.instrument(ledger)
    assert recorder.missing == ["net.run", "mempool.settle"]
    recorder.round = 0
    assert ledger.mempool.admit() == "admitted"
    span_pass = {
        "rounds": 1,
        "span_totals": recorder.totals(),
        "missing": recorder.missing,
        "walls_s": [1.0],
        "bursts_s": [0.015],
    }
    layer = metrics.layer_spans(span_pass, 1.0)
    assert layer["ledger.mempool_settle_ms"] is None
    assert layer["net.run_wall_ms_per_round"] is None
    assert layer["net.run_calls_per_round"] is None
    assert layer["ledger.mempool_admit_ms"] > 0.0
    assert adapter.wrap_entry_points(object(), lambda name, fn: fn) == list(
        adapter.WRAP_TARGETS
    )


def test_checkpoints_are_as_many_as_declared_and_growth_uses_their_rounds():
    soak = BY_NAME["soak"]
    assert soak.checkpoints == 2
    # 32 is the driver's round count and 16 the traced one: neither is
    # divisible by checkpoints + 1
    assert soak.checkpoint_rounds(32) == (10, 21)
    assert soak.checkpoint_rounds(16) == (5, 10)
    assert soak.checkpoint_rounds(soak.smoke_rounds) == (1, 2)
    assert BY_NAME["msg_bound"].checkpoint_rounds(16) == ()
    repeat = {
        "rounds": 32, "rows": [], "phase_msgs": {}, "walls_s": [0.1], "bursts_s": [0.015],
        "rss_start_kib": 0, "rss_end_kib": 0,
        "checkpoint_rounds": [10, 21], "checkpoint_bytes": [1000, 1550],
    }
    layer = metrics.layer_counts([repeat])
    assert layer["ledger.checkpoint_bytes_first"] == 1000.0
    assert layer["ledger.checkpoint_bytes_growth_per_100_rounds"] == pytest.approx(5000.0)


def test_compare_refuses_results_taken_with_different_settings(tmp_path, capsys):
    settings = {"seed": 0, "scale": 1.0, "repeats": 5, "smoke": False, "workloads": {}}
    paths = []
    for index, smoke in enumerate((False, True)):
        paths.append(str(tmp_path / f"{index}.json"))
        with open(paths[-1], "w", encoding="utf-8") as fh:
            json.dump(dict(settings, smoke=smoke), fh)
    assert cli.main(["compare", paths[0], paths[0]]) == 0
    assert cli.main(["compare", paths[0], paths[1]]) == 2
    assert "smoke" in capsys.readouterr().out


def _soak_repeat(tmp_path, rounds, leaky):
    soak = BY_NAME["soak"]
    if not leaky:
        return bench.run_child(soak, 0, rounds, soak.warmup, "plain", str(tmp_path))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([ROOT, os.path.join(ROOT, "src")]))
    script = os.path.join(os.path.dirname(__file__), "leaky_child.py")
    done = subprocess.run(
        [sys.executable, script, str(rounds), str(tmp_path)],
        env=env, stdout=subprocess.PIPE, timeout=120, check=True,
    )
    return json.loads(done.stdout)


def test_memory_metrics_fire_on_an_injected_leak(tmp_path):
    rounds = 20
    clean, again, leaky = (
        _soak_repeat(tmp_path, rounds, leaky) for leaky in (False, False, True)
    )
    assert clean["sim_digest"] == leaky["sim_digest"]
    # 20 rounds are not divisible by checkpoints + 1 either
    assert clean["checkpoint_rounds"] == [6, 13] and len(clean["checkpoint_bytes"]) == 2
    bound = next(m.bound for m in metrics.END_TO_END if m.name == "peak_rss_mib")

    def peak(repeat):
        return metrics.repeat_end_to_end(repeat)["peak_rss_mib"]

    def growth(repeat):
        return metrics.layer_counts([repeat])["ledger.rss_growth_kib_per_100_rounds"]

    assert abs(peak(again) / peak(clean) - 1.0) <= bound
    assert peak(leaky) / peak(clean) - 1.0 > bound
    # 1 MiB a round is 102400 KiB per 100 rounds on top of the ledger's own
    assert growth(leaky) - growth(clean) > 0.8 * 102400
    assert abs(growth(again) - growth(clean)) < 0.2 * 102400
