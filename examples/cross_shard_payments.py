#!/usr/bin/env python
"""Cross-shard payments: the inter-committee consensus path in detail.

Drives a cross-shard-heavy workload and shows, per committee pair (i, j),
how many transactions the sending committee certified, how many the
receiving committee accepted, and the end-to-end phase latencies — the
lifecycle of Fig. 2 step (3b).

Run:  python examples/cross_shard_payments.py
"""

from collections import Counter

from repro import CycLedger, ProtocolParams


def main(rounds: int = 3, **param_overrides) -> None:
    """Run the cross-shard walkthrough; ``param_overrides`` replace any
    :class:`ProtocolParams` field (used by the example tests)."""
    defaults = dict(
        n=48,
        m=3,
        lam=2,
        referee_size=6,
        seed=7,
        users_per_shard=48,
        tx_per_committee=10,
        cross_shard_ratio=0.6,  # cross-shard heavy
        invalid_ratio=0.1,
    )
    defaults.update(param_overrides)
    params = ProtocolParams(**defaults)
    ledger = CycLedger(params)
    print("cross-shard heavy workload (60% of transactions leave their shard)\n")

    totals: Counter = Counter()
    for report in ledger.run(rounds=rounds):
        inter = report.inter
        print(f"round {report.round_number}: "
              f"{report.submitted} submitted, {report.packed} packed "
              f"({report.cross_packed} cross-shard), "
              f"inter-phase {report.phase_sim_times['inter']:.1f} sim-t")
        for (i, j), round_result in sorted(inter.send_rounds.items()):
            accepted = len(inter.accepted.get((i, j), []))
            certified = len(round_result.reported_txs)
            print(f"    C{i} -> C{j}: proposed {len(round_result.txs):>2}, "
                  f"certified {certified:>2}, accepted by C{j} {accepted:>2}")
            totals["proposed"] += len(round_result.txs)
            totals["certified"] += certified
            totals["accepted"] += accepted

    print(f"\ntotals: proposed {totals['proposed']}, "
          f"certified by sending committees {totals['certified']}, "
          f"accepted by receiving committees {totals['accepted']}")
    print("every accepted transaction carries BOTH committees' certificates,")
    print("each anchored to a semi-committed member list held by C_R.")


if __name__ == "__main__":
    main()
