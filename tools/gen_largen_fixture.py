"""Regenerate ``tests/fixtures/pre_largen_rounds.json``.

Run this at a known-good revision (the fixture committed with the
large-n fast path was generated at v1.6.0, the last pre-vectorization
HEAD) to pin the byte-exact behaviour the fast path must reproduce:

    PYTHONPATH=src python tools/gen_largen_fixture.py

The fixture has two sections:

* ``runs`` — per-backend round rows + final chain/reputation state for
  n up to 96 (the overlapping scales named in the acceptance criteria),
  including an overlapped CycLedger variant so every execution path is
  pinned, not just the default one.
* ``sweep`` — SHA-256 digests of a three-backend sweep's JSON artifact
  (with the version-bearing ``spec_hash`` field stripped) and of its
  CSV artifact (version-independent by construction), so the *artifact
  encodings* are pinned too, not only the in-memory rows.
"""

from __future__ import annotations

import hashlib
import json
import os

from repro.backends import create_backend
from repro.core.config import ProtocolParams
from repro.exp import ExperimentSpec, Runner
from repro.exp.results import round_row, write_csv
from repro.exp.spec import canonical_json
from repro.nodes.adversary import AdversaryConfig

FIXTURE_PATH = os.path.join(
    os.path.dirname(__file__), "..", "tests", "fixtures",
    "pre_largen_rounds.json",
)

RUNS = {
    "cycledger_n96": dict(
        backend="cycledger",
        params=dict(
            n=96, m=4, lam=2, referee_size=8, seed=0, users_per_shard=24,
            tx_per_committee=6, cross_shard_ratio=0.3, invalid_ratio=0.1,
        ),
        adversary=dict(fraction=0.2),
        rounds=3,
    ),
    "cycledger_n64_overlap_poisson": dict(
        backend="cycledger",
        params=dict(
            n=64, m=4, lam=2, referee_size=8, seed=2, users_per_shard=16,
            tx_per_committee=5, cross_shard_ratio=0.25, invalid_ratio=0.1,
            overlap="semicommit", arrival_process="poisson",
            arrival_rate=30.0, mempool_max_age=3,
        ),
        adversary=None,
        rounds=3,
    ),
    "rapidchain_n96": dict(
        backend="rapidchain",
        params=dict(
            n=96, m=4, lam=2, referee_size=8, seed=0, users_per_shard=24,
            tx_per_committee=6, cross_shard_ratio=0.3, invalid_ratio=0.1,
        ),
        adversary=None,
        rounds=2,
    ),
    "omniledger_n96": dict(
        backend="omniledger_sim",
        params=dict(
            n=96, m=4, lam=2, referee_size=8, seed=0, users_per_shard=24,
            tx_per_committee=6, cross_shard_ratio=0.3, invalid_ratio=0.1,
        ),
        adversary=None,
        rounds=2,
    ),
}

SWEEP = ExperimentSpec(
    name="pre-largen-sweep",
    rounds=2,
    seeds=(0,),
    base={
        "n": 96, "m": 4, "lam": 2, "referee_size": 8,
        "users_per_shard": 24, "tx_per_committee": 6,
        "cross_shard_ratio": 0.3, "invalid_ratio": 0.1,
    },
    adversary={"fraction": 0.2},
    backend_grid=("cycledger", "rapidchain", "omniledger_sim"),
)


def sweep_digests(tmp_csv: str) -> dict[str, str]:
    outcome = Runner(SWEEP, workers=1).run()
    payload = json.loads(outcome.json_bytes())
    payload.pop("spec_hash", None)  # mixes the package version
    stripped = (canonical_json(payload) + "\n").encode("utf-8")
    write_csv(tmp_csv, outcome.results)
    with open(tmp_csv, "rb") as fh:
        csv_bytes = fh.read()
    return {
        "json_sha256_no_spec_hash": hashlib.sha256(stripped).hexdigest(),
        "csv_sha256": hashlib.sha256(csv_bytes).hexdigest(),
    }


def main() -> None:
    fixture: dict[str, object] = {"runs": {}, "sweep": {}}
    for name, cfg in RUNS.items():
        adversary = (
            AdversaryConfig(**cfg["adversary"]) if cfg["adversary"] else None
        )
        ledger = create_backend(
            cfg["backend"], ProtocolParams(**cfg["params"]),
            adversary=adversary,
        )
        reports = ledger.run(cfg["rounds"])
        fixture["runs"][name] = {
            "backend": cfg["backend"],
            "params": cfg["params"],
            "adversary": cfg["adversary"],
            "rounds": cfg["rounds"],
            "rows": [round_row(r) for r in reports],
            "phase_sim_times": [r.phase_sim_times for r in reports],
            "final": {
                "chain_head": ledger.chain.head.hash.hex(),
                "chain_length": len(ledger.chain),
                "total_packed": ledger.total_packed(),
                "reputation": dict(sorted(ledger.reputation.items())),
            },
        }
        print(f"pinned {name}: {cfg['rounds']} rounds")
    tmp_csv = FIXTURE_PATH + ".csv.tmp"
    try:
        fixture["sweep"] = sweep_digests(tmp_csv)
    finally:
        if os.path.exists(tmp_csv):
            os.remove(tmp_csv)
    print(f"pinned sweep digests: {fixture['sweep']}")
    with open(FIXTURE_PATH, "w") as fh:
        json.dump(fixture, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {os.path.normpath(FIXTURE_PATH)}")


if __name__ == "__main__":
    main()
