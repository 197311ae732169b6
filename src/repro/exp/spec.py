"""Declarative experiment specifications.

Sharded-consensus evaluation is a parameter-sweep workload: shard count ×
adversary fraction × failure rate × seed.  An :class:`ExperimentSpec`
describes such a sweep declaratively — a base :class:`ProtocolParams`
override dict, a product grid of parameter axes, a product grid of
:class:`AdversaryConfig` axes and a seed list — and expands it into concrete
:class:`SweepPoint`\\ s.  (Table II is not a sweep: it reads
:func:`repro.exp.role_cells` on the scale curve's shape, see
``benchmarks/bench_table2_complexity.py``.)

Two derived identifiers make sweeps resumable and reproducible:

* ``spec_hash`` — a SHA-256 over the canonical JSON encoding of the whole
  spec.  The result cache is keyed by it, so editing any knob invalidates
  exactly the affected sweep.
* per-point ``derived_seed`` — a seed hashed from the point's own content
  (overrides + seed + rounds), so every grid cell runs an independent,
  reproducible random stream regardless of enumeration order or how many
  sibling points the sweep contains.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass, field
from itertools import product
from typing import Any, Mapping, Sequence

from repro.core.config import ProtocolParams
from repro.nodes.adversary import AdversaryConfig

#: ProtocolParams fields a sweep may override.  ``net`` is a nested
#: dataclass; sweeps over network parameters go through ``net.<field>``
#: style keys in ``base``/``grid`` are not supported yet (YAGNI until a
#: latency sweep needs it).
PARAM_FIELDS = frozenset(
    f.name for f in dataclasses.fields(ProtocolParams) if f.name != "net"
)

#: AdversaryConfig fields a sweep may override.
ADVERSARY_FIELDS = frozenset(f.name for f in dataclasses.fields(AdversaryConfig))


def _jsonable(value: Any) -> Any:
    """Normalise a value into canonical plain-JSON types.

    NumPy scalars, tuples and sets all appear naturally in hand-written
    specs; hashing must not distinguish ``(2, 4)`` from ``[2, 4]``.
    """
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, (set, frozenset)):
        return sorted(_jsonable(v) for v in value)
    if isinstance(value, Mapping):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, bool) or value is None or isinstance(value, (int, str)):
        return value
    if isinstance(value, float):
        return value
    if hasattr(value, "item"):  # numpy scalar
        return _jsonable(value.item())
    raise TypeError(f"spec values must be JSON-encodable, got {type(value).__name__}")


def canonical_json(obj: Any) -> str:
    """The one true JSON rendering used for hashing and byte-level
    comparison: sorted keys, fixed separators, no trailing whitespace."""
    return json.dumps(_jsonable(obj), sort_keys=True, separators=(",", ":"))


def _sha256_hex(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def point_key(point: Mapping[str, Any]) -> str:
    """A run record's key: the hash of its canonical ``point``."""
    return _sha256_hex(canonical_json(point))[:24]


@dataclass(frozen=True)
class SweepPoint:
    """One concrete cell of a sweep: a full override description plus the
    derived seed its protocol run will use."""

    params: Mapping[str, Any]  # ProtocolParams overrides (without seed)
    adversary: Mapping[str, Any] | None  # AdversaryConfig overrides, or honest
    seed: int  # the spec-level seed axis value
    rounds: int
    capacity_preset: str | None
    scenario: str | None  # named fault-injection scenario, or fault-free
    backend: str  # executable backend registry name
    derived_seed: int

    def descriptor(self) -> dict[str, Any]:
        """The point's canonical identity (excludes nothing that affects
        the run; used both as cache key material and in result records)."""
        return {
            "params": _jsonable(dict(self.params)),
            "adversary": None
            if self.adversary is None
            else _jsonable(dict(self.adversary)),
            "seed": self.seed,
            "rounds": self.rounds,
            "capacity_preset": self.capacity_preset,
            "scenario": self.scenario,
            "backend": self.backend,
            "derived_seed": self.derived_seed,
        }

    @property
    def key(self) -> str:
        """Stable cache key: hash of the descriptor."""
        return point_key(self.descriptor())


def derive_point_seed(
    params: Mapping[str, Any],
    adversary: Mapping[str, Any] | None,
    seed: int,
    rounds: int,
) -> int:
    """Hash a point's content into its protocol seed.

    Content-addressed (not index-addressed): reordering grid axes or adding
    sibling points never changes the seed an existing cell runs with, so
    cached results stay valid across spec growth.  The scenario name is
    deliberately *excluded*: fault-injected and fault-free arms of one
    point run on the same protocol seed, so a scenario sweep is a paired
    comparison (the delta is the fault, not seed noise); the scenario
    still distinguishes the arms' cache keys via the descriptor.  That
    covers adversary policies, which are scenario events: the policy-free
    and policy-bearing arms of one point share a protocol seed, so a
    behavioural sweep measures the policy's damage, not seed noise.  The
    backend name is excluded for the same reason: all protocols at one
    point share a root seed (workload, adversary lottery and network
    jitter sub-streams line up), so a backend sweep compares protocols,
    not seed noise.  The ``overlap`` param is excluded too, even though it
    travels inside ``params``: it only re-times the reported timeline and
    never touches execution, so both arms of an overlap sweep must run the
    identical protocol stream — that is what makes the sequential-vs-
    pipelined latency comparison paired (and lets CI assert byte-identical
    final ledger state across arms).
    """
    material = canonical_json(
        {
            "adversary": adversary,
            "params": {k: v for k, v in params.items() if k != "overlap"},
            "rounds": rounds,
            "seed": seed,
        }
    )
    digest = hashlib.sha256(b"sweep-point-seed\x1f" + material.encode()).digest()
    return int.from_bytes(digest[:8], "big") & 0x7FFFFFFF


@dataclass(frozen=True)
class ExperimentSpec:
    """A declarative sweep over CycLedger deployments.

    ``grid`` and ``adversary_grid`` are product axes.  With
    ``derive_seeds=False`` the spec-level seed is used verbatim as
    ``ProtocolParams.seed`` (the historical benchmark behaviour); with the
    default ``True`` each point gets a content-derived seed.

    ``scenario`` names one fault-timeline preset
    (:data:`repro.scenarios.SCENARIO_PRESETS` — scheduled faults and
    adaptive adversary policies alike) applied to every point;
    ``scenario_grid`` is a product axis of preset names (``None`` entries
    mean fault-free) for comparing behaviour across fault timelines.

    ``backend`` names the executable protocol every point runs on
    (:data:`repro.backends.BACKEND_REGISTRY`); ``backend_grid`` is a
    product axis of backend names for head-to-head protocol comparisons.
    Unknown names fail here, at spec-validation time — never inside a
    worker.

    The round-overlap engine's knobs are ordinary ``ProtocolParams``
    fields, so they sweep through ``base``/``grid`` like any other axis:
    ``grid={"overlap": ("none", "semicommit")}`` is the paired
    sequential-vs-pipelined latency comparison (both arms share seeds and
    streams and finish in byte-identical ledger state — only the reported
    timeline differs), and ``base={"arrival_process": "poisson",
    "arrival_rate": 60.0}`` switches every point to the persistent
    mempool's rate-process feed.
    """

    name: str
    rounds: int = 2
    seeds: Sequence[int] = (0,)
    base: Mapping[str, Any] = field(default_factory=dict)
    grid: Mapping[str, Sequence[Any]] = field(default_factory=dict)
    adversary: Mapping[str, Any] = field(default_factory=dict)
    adversary_grid: Mapping[str, Sequence[Any]] = field(default_factory=dict)
    capacity_preset: str | None = None
    scenario: str | None = None
    scenario_grid: Sequence[str | None] = ()
    backend: str = "cycledger"
    backend_grid: Sequence[str] = ()
    derive_seeds: bool = True

    def __post_init__(self) -> None:
        if self.rounds <= 0:
            raise ValueError("rounds must be positive")
        if not self.seeds:
            raise ValueError("at least one seed is required")
        for key in (*self.base, *self.grid):
            if key not in PARAM_FIELDS:
                raise ValueError(f"unknown ProtocolParams field {key!r}")
        if "seed" in self.base or "seed" in self.grid:
            raise ValueError("sweep seeds via the 'seeds' axis, not the grid")
        for key in (*self.adversary, *self.adversary_grid):
            if key not in ADVERSARY_FIELDS:
                raise ValueError(f"unknown AdversaryConfig field {key!r}")
        if self.capacity_preset is not None:
            from repro.exp.presets import CAPACITY_PRESETS

            if self.capacity_preset not in CAPACITY_PRESETS:
                raise ValueError(
                    f"unknown capacity preset {self.capacity_preset!r}"
                )
        if self.scenario is not None and self.scenario_grid:
            raise ValueError("give scenario or scenario_grid, not both")
        named_scenarios = [
            s for s in (*self.scenario_grid, self.scenario) if s is not None
        ]
        if named_scenarios:
            from repro.scenarios import SCENARIO_PRESETS

            for name in named_scenarios:
                if name not in SCENARIO_PRESETS:
                    raise ValueError(f"unknown scenario preset {name!r}")
        if self.backend != "cycledger" and self.backend_grid:
            raise ValueError("give backend or backend_grid, not both")
        from repro.backends import BACKEND_REGISTRY

        for name in (*self.backend_grid, self.backend):
            if name not in BACKEND_REGISTRY:
                known = ", ".join(sorted(BACKEND_REGISTRY))
                raise ValueError(
                    f"unknown backend {name!r} (known: {known})"
                )

    # -- identity ----------------------------------------------------------
    def to_dict(self) -> dict[str, Any]:
        """Canonical plain-JSON form (the input to :meth:`spec_hash`)."""
        return {
            "name": self.name,
            "rounds": self.rounds,
            "seeds": _jsonable(list(self.seeds)),
            "base": _jsonable(dict(self.base)),
            "grid": _jsonable({k: list(v) for k, v in self.grid.items()}),
            "adversary": _jsonable(dict(self.adversary)),
            "adversary_grid": _jsonable(
                {k: list(v) for k, v in self.adversary_grid.items()}
            ),
            "capacity_preset": self.capacity_preset,
            "scenario": self.scenario,
            "scenario_grid": _jsonable(list(self.scenario_grid)),
            "backend": self.backend,
            "backend_grid": _jsonable(list(self.backend_grid)),
            "derive_seeds": self.derive_seeds,
        }

    def spec_hash(self) -> str:
        """Content hash of the spec; the cache namespace.

        The package version is mixed in so cached results can never
        survive a code upgrade that changes simulation behaviour — a
        stale cache in a reproduction harness is silently wrong science.
        """
        import repro

        return _sha256_hex(
            repro.__version__ + "\x1f" + canonical_json(self.to_dict())
        )[:24]

    # -- expansion ---------------------------------------------------------
    def expand(self) -> list[SweepPoint]:
        """Enumerate every concrete sweep point, in deterministic order."""
        param_axes = sorted(self.grid.items())
        adv_axes = sorted(self.adversary_grid.items())
        param_combos = [
            dict(zip([k for k, _ in param_axes], values))
            for values in product(*(vs for _, vs in param_axes))
        ]
        adv_combos = [
            dict(zip([k for k, _ in adv_axes], values))
            for values in product(*(vs for _, vs in adv_axes))
        ]
        scenarios = list(self.scenario_grid) or [self.scenario]
        backends = list(self.backend_grid) or [self.backend]
        out: list[SweepPoint] = []
        for combo in param_combos:
            params = {**self.base, **combo}
            for adv_combo in adv_combos:
                adversary: dict[str, Any] | None = {
                    **self.adversary,
                    **adv_combo,
                }
                if not adversary:
                    adversary = None
                for scenario in scenarios:
                    for backend in backends:
                        for seed in self.seeds:
                            derived = (
                                derive_point_seed(
                                    _jsonable(params),
                                    None
                                    if adversary is None
                                    else _jsonable(adversary),
                                    int(seed),
                                    self.rounds,
                                )
                                if self.derive_seeds
                                else int(seed)
                            )
                            out.append(
                                SweepPoint(
                                    params=params,
                                    adversary=adversary,
                                    seed=int(seed),
                                    rounds=self.rounds,
                                    capacity_preset=self.capacity_preset,
                                    scenario=scenario,
                                    backend=backend,
                                    derived_seed=derived,
                                )
                            )
        return out
