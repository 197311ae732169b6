"""SCRAPE-style distributed randomness beacon (§IV-F, §V-A).

"Participants in C_R distributedly generate next round's seed R^{r+1} via a
random beacon generator.  Here, the SCRAPE scheme is preferred as it
guarantees the pseudorandomness and unbiasedness of the seed even when the
adversary takes control of almost half nodes. … no leader is required."

Protocol per round, run among the ``n`` referee members with reconstruction
threshold ``t = ⌊n/2⌋ + 1``:

1. **Deal** — every member deals a PVSS of a fresh random secret.
2. **Verify** — every member publicly verifies every dealing (SCRAPE
   dual-code check).  Dealings that fail are disqualified; the *qualified
   set* is fixed before any secret is revealed, which is what removes
   adversarial bias: a malicious dealer must commit before seeing others'
   secrets, and withholding after qualification cannot help because honest
   members jointly hold enough shares to reconstruct anyway.
3. **Reveal & reconstruct** — shares of qualified dealings are published,
   checked against their commitments, and the secrets reconstructed.
4. **Output** — the beacon is ``H(r, sorted qualified secrets)``.

Adversarial dealers/withholders are modelled explicitly so tests can show
unbiasability: the output is unchanged whether or not malicious members
reveal, provided honest members are a majority.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from typing import Iterable

import numpy as np

from repro.crypto.field import FIELD, GROUP
from repro.crypto.hashing import H
from repro.crypto.pvss import (
    PVSSDealing,
    PVSSSecrets,
    deal,
    reconstruct,
    verify_dealing,
    verify_revealed_share,
)


@dataclass
class BeaconReport:
    """What happened during one beacon run (for metrics and tests)."""

    n: int
    threshold: int
    qualified: list[int] = dc_field(default_factory=list)
    disqualified: list[int] = dc_field(default_factory=list)
    withheld_shares: int = 0
    invalid_revealed_shares: int = 0
    reconstructed_secrets: dict[int, int] = dc_field(default_factory=dict)


class ScrapeBeacon:
    """One beacon instance for a committee of ``n`` members.

    ``malicious`` members can deal corrupt dealings (``corrupt_dealers``) and
    withhold or corrupt their reveal-phase shares (``withhold``); the class
    demonstrates that neither affects the output when honest members form a
    majority.
    """

    def __init__(
        self,
        n: int,
        rng: np.random.Generator,
        threshold: int | None = None,
    ) -> None:
        if n < 1:
            raise ValueError("beacon needs at least one member")
        self.n = n
        self.threshold = threshold if threshold is not None else n // 2 + 1
        if not (1 <= self.threshold <= n):
            raise ValueError("threshold out of range")
        self.rng = rng
        self._dealings: dict[int, PVSSDealing] = {}
        self._secrets: dict[int, PVSSSecrets] = {}

    # -- phase 1: dealing -------------------------------------------------
    def deal_all(
        self, corrupt_dealers: Iterable[int] = ()
    ) -> dict[int, PVSSDealing]:
        """Every member deals; ``corrupt_dealers`` produce inconsistent
        dealings (share vector off the degree-(t-1) polynomial)."""
        corrupt = set(corrupt_dealers)
        for member in range(self.n):
            secret = int(self.rng.integers(1, FIELD.p))
            dealing, secrets = deal(secret, self.n, self.threshold, self.rng)
            if member in corrupt and self.n > 1:
                # Perturb one share commitment so the vector is no longer a
                # codeword — the classic "inconsistent dealing" attack.
                bad = list(dealing.share_commitments)
                bad[0] = bad[0] * dealing.coeff_commitments[0] % GROUP.q
                dealing = PVSSDealing(
                    n=dealing.n,
                    threshold=dealing.threshold,
                    coeff_commitments=dealing.coeff_commitments,
                    share_commitments=tuple(bad),
                )
            self._dealings[member] = dealing
            self._secrets[member] = secrets
        return dict(self._dealings)

    # -- phase 2: public verification -------------------------------------
    def qualify(self, report: BeaconReport) -> list[int]:
        """Run SCRAPE verification on every dealing; fix the qualified set."""
        for member, dealing in sorted(self._dealings.items()):
            if verify_dealing(dealing, self.rng):
                report.qualified.append(member)
            else:
                report.disqualified.append(member)
        return report.qualified

    # -- phase 3: reveal & reconstruct -------------------------------------
    def reveal_and_reconstruct(
        self,
        qualified: list[int],
        report: BeaconReport,
        withhold: Iterable[int] = (),
    ) -> dict[int, int]:
        """Members publish shares of qualified dealings; ``withhold`` members
        publish nothing (or garbage — treated identically after the
        commitment check)."""
        withheld = set(withhold)
        if self.n - len(withheld) < self.threshold:
            raise RuntimeError(
                "honest members below reconstruction threshold — beacon "
                "liveness requires an honest majority in C_R"
            )
        for dealer in qualified:
            dealing = self._dealings[dealer]
            shares = self._secrets[dealer].shares
            points: list[tuple[int, int]] = []
            for holder in range(self.n):
                idx = holder + 1
                if holder in withheld:
                    report.withheld_shares += 1
                    continue
                share = shares[idx - 1]
                if not verify_revealed_share(dealing, idx, share):
                    report.invalid_revealed_shares += 1
                    continue
                points.append((idx, share))
            secret = reconstruct(points, self.threshold)
            report.reconstructed_secrets[dealer] = secret
        return report.reconstructed_secrets

    # -- phase 4: output ----------------------------------------------------
    @staticmethod
    def output(round_number: int, secrets: dict[int, int]) -> bytes:
        """Beacon value: hash of the round number and all qualified secrets."""
        items = tuple(sorted(secrets.items()))
        return H("BEACON", round_number, items)


def run_beacon(
    n: int,
    round_number: int,
    rng: np.random.Generator,
    corrupt_dealers: Iterable[int] = (),
    withhold: Iterable[int] = (),
    threshold: int | None = None,
) -> tuple[bytes, BeaconReport]:
    """Run a complete beacon round and return ``(R^{r+1}, report)``."""
    beacon = ScrapeBeacon(n, rng, threshold=threshold)
    report = BeaconReport(n=n, threshold=beacon.threshold)
    beacon.deal_all(corrupt_dealers=corrupt_dealers)
    qualified = beacon.qualify(report)
    secrets = beacon.reveal_and_reconstruct(qualified, report, withhold=withhold)
    return ScrapeBeacon.output(round_number, secrets), report
