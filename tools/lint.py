#!/usr/bin/env python
"""The repo's one-rule-per-judgement table and its runner: ``python tools/lint.py``.

Each row of ``RULES`` names a rule, says why with a doc pointer, and holds the
paths it scans and one check: a regex no line may match (``words``: whole words;
``exclude``: files skipped), a number of lines that must match it (``count``),
or a function of a file's text; a rule over several rows holds each.  Paths
are read as ``grep -r`` reads them, untracked files too, ``__pycache__`` never,
and may be globs; a missing path fails its rule.  This file and its test spell
out what the rules forbid and are not scanned.  Each hit prints as
``rule: path:line: text``, and every failing rule is named before the exit 1.
A new retired name or one-rule check is a new row plus its bite line in
tests/test_tools_lint.py, never a new CI step.
"""

from __future__ import annotations

import ast
import re
import sys
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable

#: The tree scanned; the tests point it at a copy.
ROOT = Path(__file__).resolve().parent.parent
SELF = ("tools/lint.py", "tests/test_tools_lint.py")
#: Where a retired name must not come back, in docs and tools as well as code.
EVERYWHERE = "src tests benchmarks tools docs README.md .claude"


def audited(text: str) -> list[int]:
    """``audit_vote_round`` calls outside ``run_audited_rounds``; imports of intra's privates."""
    bad = []
    if "audit_vote_round" not in text and "repro.core.intra" not in text:
        return bad
    for stmt in ast.parse(text).body:
        scope = getattr(stmt, "name", None)
        for node in ast.walk(stmt):
            if isinstance(node, ast.ImportFrom) and node.module == "repro.core.intra":
                bad += [node.lineno for alias in node.names if alias.name.startswith("_")]
            if isinstance(node, ast.Call) and scope != "run_audited_rounds":
                name = getattr(node.func, "id", getattr(node.func, "attr", ""))
                if name == "audit_vote_round":
                    bad.append(node.lineno)
    return bad


@dataclass(frozen=True)
class Rule:
    """One row: ``check`` is a regex, or a function from a file's text to line numbers."""

    name: str
    why: str
    paths: str
    check: str | Callable[[str], list[int]]
    count: int | None = None
    words: bool = False
    exclude: tuple[str, ...] = ()


def rows(first: Rule, *more: dict) -> tuple[Rule, ...]:
    """A rule over several rows: ``first``, then ``first`` changed by each of ``more``."""
    return (first, *(replace(first, **change) for change in more))


RULES = (
    Rule("No collector tuning in the library",
         'allocate less, keep the collector on (docs/perf.md, "The collector is the super-linear term")',
         "src/repro", r"gc\.(disable|freeze|set_threshold)"),
    Rule("No per-member handler factories in the library",
         'a handler reads its member off the message (docs/architecture.md, "The envelope names the member")',
         "src/repro", r"def _?make_on_"),
    Rule("No second fault-injection path in the library",
         "an adversary policy is a scenario event: one driver, registry, codec, sweep axis (docs/scenarios.md)",
         "src/repro", r"PolicyDriver|policy_driver|policy_grid|POLICY_PRESETS|policy_(to|from)_dict"),
    Rule("No networkx or SciPy on the simulation path",
         'numpy is the one required dependency (docs/perf.md, "What a process holds")',
         "src/repro", r"^(import (networkx|scipy)|from (networkx|scipy)[. ])"),
    Rule("No memo or option that buys nothing",
         'retired memos, options and formulas (docs/architecture.md, "Derived state that survives")',
         "src/repro", r"_SHARD_OF|pool_envelopes|strict_channels|build_default_pipeline|_enc_vote|"
         r"_deg_cursor|_deg_active|_pending_corruptions|fabricate_accusation|FramingPartialMember|_UNSET|"
         r"cycledger_channel_count|full_clique_channels|complexity_messages|connection_channels|"
         r"ReputationStore|add_scores"),
    Rule("One MAC primitive", 'every tag is MacKey.tag, keyed once (docs/perf.md, "keyed-once MACs")',
         "src/repro", r"hmac\.(digest|new)\("),
    Rule("One draw path",
         'the workload draws through DrawStream (docs/perf.md, "The stream-exactness constraint")',
         "src/repro/ledger/workload.py", r"rng\.(integers|random|poisson)\("),
    Rule("One judgement per shard view",
         'a vote reads ShardState.verdict_row (docs/architecture.md, "derive each fact once")',
         "src/repro/nodes/behaviors.py", r"validate\(tx\)"),
    Rule("No per-entry insert in the UTXO listing",
         'new entries merge in one sorted pass (docs/perf.md, "Long horizons")',
         "src/repro/ledger/state.py", r"bisect|\.insert\("),
    *rows(Rule("One UTXO writer",
               'one walk, state.apply_block (docs/architecture.md, "One walk per committed block")',
               "src/repro", r"\.apply_transaction\(|transaction_fee\("),
          dict(paths="src/repro/ledger/utxo.py src/repro/core/*.py src/repro/backends/*.py",
               check=r"\.snapshot\(\)")),
    *rows(Rule("Ledger records stay exact tuples",
               'a record class stays tracked (docs/perf.md, "What the ledger leaves for the collector")',
               "src/repro", r"namedtuple|NamedTuple|class Tx(Input|Output)\b"),
          dict(paths="tests", check=r"class Tx(Input|Output)\b")),
    Rule("One record per admitted transaction",
         'a Transaction and its TaggedTx (docs/perf.md, "What the generator leaves for the collector")',
         "src/repro", r"QueuedTx|_effects\[[^\]]*\] = \(", exclude=("src/repro/ledger/checkpoint.py",)),
    Rule("One oracle per claim", "each ledger claim has one oracle, in tests/reference_impls.py",
         "tests benchmarks", r"TxInput|TxOutput|DataclassTransaction|"
         r"record_(validate_transaction|apply_block|digest_items)|per_shard_(apply_block|add_genesis)|"
         r"NaiveWorkloadGenerator|NumpyDraws|PerItemBehavior"),
    Rule("A formula is not its own check",
         "Fig. 5 measures the committees the library forms (benchmarks/bench_fig5_failure.py)",
         "src benchmarks tests", r"monte_carlo_committee_failure|\.hypergeometric\("),
    Rule("One run record, one sandbox builder",
         "repro run --json writes a sweep point's record; build_sandbox(m=...) stages every world",
         "src/repro tests benchmarks", r"_write_run_json|build_multi_sandbox|RoundAggregator"),
    *rows(Rule("One run driver in the CLI",
               "repro run drives every backend under every scenario; scenario and backends only list",
               "src/repro/cli.py", r"create_backend\(", count=1),
          dict(check=r"CycLedger\(", count=None)),
    *rows(Rule("One quorum rule",
               'every majority is core.consensus.quorum (docs/architecture.md, "One rule per judgement")',
               "src/repro/core src/repro/scenarios/policies.py", r"(/|//) 2\b", count=1),
          dict(paths="src/repro/core", check=r"class _proxy", count=None),
          dict(paths="src/repro/core/consensus.py", check=r"threshold", count=None)),
    Rule("One semi-commitment rule",
         "binding is asked of crypto.commitment.verify_semi_commitment (§IV-B step 3)",
         "src/repro/core", r"semi_commitment\([^)]*\) *[!=]="),
    Rule("The decision reference imports no decision code",
         'it spells the majority itself (docs/architecture.md, "One rule per judgement")',
         "tests/decision_reference.py", r"^\s*(from|import) repro\.(core|net|crypto)|quorum\("),
    Rule("One audit rule for every vote round",
         'vote rounds run under intra.run_audited_rounds (docs/architecture.md, "One rule per judgement")',
         "src/repro/core/*.py", audited),
    Rule("Wall clock only in the trace sink and the sweep runner",
         'a run\'s artifacts hold simulated time only (docs/architecture.md, "The trace sink")',
         "src/repro", r"perf_counter|time\.time\(|process_time",
         exclude=("src/repro/core/trace.py", "src/repro/exp/runner.py")),
    Rule("One sweep grid",
         "every axis is a key of an ExperimentSpec's base/grid; one incentive rule (docs/experiments.md)",
         "src tests benchmarks tools examples docs README.md", r"adversary_grid|scenario_grid|backend_grid|"
         r"PointTiming|write_bench|bench_payload|BENCH_sweep|bench-out|reward_shares|leader_punishment",
         words=True),
    Rule("IDA chunks are one fan-out",
         "a rival's coded dissemination is one recipient-major multicast (docs/backends.md)",
         "src/repro/backends/base.py", r"for index in range\(chunks\)"),
    Rule("Only Algorithm 3 tallies a fan-out",
         'the ECHO step is the one user (docs/architecture.md, "The message fabric")',
         "src/repro", r"tally=",
         exclude=("src/repro/core/consensus.py", "src/repro/net/simulator.py", "src/repro/net/node.py")),
    Rule("One fabric story", "tests/fabric_machine.py replaced the four per-feature fabric harnesses",
         "tests benchmarks", r"_fanout_fabric|_route_story|_dispatch_story|_tally_story|"
         r"_assert_multicast_is_send_loop", words=True),
    *rows(Rule("One latency model",
               'one expression in Network._fan_out (docs/architecture.md, "The message fabric")',
               "src/repro/net/simulator.py", r"\(1.0 - jitter \*", count=1),
          dict(check=r"block.item\(", count=None)),
    Rule("One pin tool", "tools/pin.py writes and checks every pinned artifact, from one file",
         EVERYWHERE, r"gen_largen_fixture|pre_overlap_rounds|pre_largen_rounds|policy_timelines|rows_sha256",
         words=True),
    Rule("One Table I", "Table I is four frozen rows, repro.exp.TABLE1, beside table1_cells",
         EVERYWHERE, r"repro\.baselines|ProtocolModel|ALL_MODELS|ElasticoModel|OmniLedgerModel|"
         r"RapidChainModel|CycLedgerModel|round_failure_(elastico|omniledger|rapidchain)", words=True),
    Rule("No negated command in a CI step",
         "bash -e does not stop at a failed !-negated command, so only a block's last one bites",
         ".github/workflows/*.yml", r"^\s*!\s"),
)


def scanned(path: str, skip: tuple[str, ...]) -> list[Path] | None:
    """The files ``grep -r`` reads for ``path`` bar ``skip``, or None if it names none."""
    found = sorted(ROOT.glob(path)) if "*" in path else [ROOT / path]
    if not any(p.exists() for p in found):
        return None
    files = [f for p in found for f in (sorted(p.rglob("*")) if p.is_dir() else [p])]
    return [f for f in files if f.is_file() and "__pycache__" not in f.parts
            and f.relative_to(ROOT).as_posix() not in SELF + skip]


def problems(rule: Rule) -> list[str]:
    """What breaks ``rule``: its missing paths and its hits, one line each."""
    missing, hits = [], []
    if isinstance(rule.check, str):
        plain = re.compile(rule.check, re.MULTILINE)
        regex = re.compile(rf"(?<!\w)(?:{rule.check})(?!\w)") if rule.words else plain
    for path in rule.paths.split():
        files = scanned(path, rule.exclude)
        if files is None:
            missing.append(f"{path}: no such file or directory")
        for file in files or ():
            text = file.read_text(encoding="utf-8", errors="replace")
            if callable(rule.check):
                numbers = rule.check(text)
            elif plain.search(text):  # one search of the whole file before one per line
                numbers = [n for n, line in enumerate(text.split("\n"), 1) if regex.search(line)]
            else:
                continue
            lines, name = text.split("\n"), file.relative_to(ROOT).as_posix()
            hits += [f"{name}:{n}: {lines[n - 1].strip()}" for n in numbers]
    if rule.count is not None:
        hits = [] if len(hits) == rule.count else [*hits, f"{len(hits)} lines match, not {rule.count}"]
    return missing + hits


def run(rules: tuple[Rule, ...] = RULES) -> int:
    """Check ``rules``; print every problem and every failing rule; 0 if none."""
    failed = []
    for rule in rules:
        found = problems(rule)
        for problem in found:
            print(f"{rule.name}: {problem}")
        if found and rule.name not in failed:
            failed.append(rule.name)
    total = len({rule.name for rule in rules})
    if failed:
        print(f"lint: {len(failed)} of {total} rules fail: {'; '.join(failed)}")
        return 1
    print(f"lint: all {total} rules hold")
    return 0


if __name__ == "__main__":
    sys.exit(run())
