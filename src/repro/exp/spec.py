"""Declarative experiment specifications.

Sharded-consensus evaluation is a parameter-sweep workload: shard count ×
adversary fraction × fault timeline × protocol × seed.  An
:class:`ExperimentSpec` describes such a sweep declaratively — a ``base``
dict of fixed keys, a ``grid`` of product axes over the same key set
(:class:`ProtocolParams` fields, ``adversary.<field>``, ``scenario``,
``backend``, ``capacity_preset``) and a seed list — and expands it into
concrete :class:`SweepPoint`\\ s.  (Table II is not a sweep: it reads
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
#: dataclass; ``net.<field>`` keys in ``base``/``grid`` are not supported
#: yet (YAGNI until a latency sweep needs it).
PARAM_FIELDS = frozenset(
    f.name for f in dataclasses.fields(ProtocolParams) if f.name != "net"
)

#: AdversaryConfig fields a sweep may override, as ``adversary.<field>`` keys.
ADVERSARY_FIELDS = frozenset(f.name for f in dataclasses.fields(AdversaryConfig))
_ADVERSARY_PREFIX = "adversary."


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


def _check_value(key: str, value: Any) -> None:
    """Raise ``ValueError`` unless ``value`` may stand at sweep key ``key``."""
    if key == "seed":
        raise ValueError("sweep seeds via the 'seeds' axis, not the grid")
    if key in PARAM_FIELDS:
        return  # ProtocolParams itself judges the value, per point
    if key.startswith(_ADVERSARY_PREFIX):
        name = key[len(_ADVERSARY_PREFIX):]
        if name not in ADVERSARY_FIELDS:
            raise ValueError(f"unknown AdversaryConfig field {name!r}")
        return
    if key == "scenario":
        from repro.scenarios import SCENARIO_PRESETS as known

        what = "scenario preset"
    elif key == "capacity_preset":
        from repro.exp.presets import CAPACITY_PRESETS as known

        what = "capacity preset"
    elif key == "backend":
        from repro.backends import BACKEND_REGISTRY as known

        what = "backend"
    else:
        raise ValueError(f"unknown ProtocolParams field {key!r}")
    if value is None and key != "backend":
        return  # fault-free / every node at the backend's capacity
    if value not in known:
        raise ValueError(
            f"unknown {what} {value!r} (known: {', '.join(sorted(known))})"
        )


@dataclass(frozen=True)
class ExperimentSpec:
    """A declarative sweep over deployments: ``base`` fixes keys, ``grid``
    makes product axes of them, ``seeds`` is the innermost axis.

    ``base`` and ``grid`` take one key set:

    * a :class:`ProtocolParams` field (``m``, ``overlap``, ...; ``seed``
      goes through ``seeds``);
    * ``adversary.<field>``, an :class:`AdversaryConfig` field (a point
      with none runs honest);
    * ``scenario``, a :data:`repro.scenarios.SCENARIO_PRESETS` name
      (scheduled faults and adaptive adversary policies alike; ``None``,
      the default, is fault-free);
    * ``backend``, a :data:`repro.backends.BACKEND_REGISTRY` name (default
      ``cycledger``);
    * ``capacity_preset``, a :data:`repro.exp.presets.CAPACITY_PRESETS`
      name (default ``None``: every node at the backend's capacity).

    ``grid={"scenario": (None, "churn"), "backend": ("cycledger",
    "rapidchain")}`` is a seed-paired fault and protocol comparison;
    ``grid={"overlap": ("none", "semicommit")}`` the sequential-vs-pipelined
    latency one (both arms finish in byte-identical ledger state).  Unknown
    keys or names, an empty axis, an axis or seed list that repeats a value
    and a key in both ``base`` and ``grid`` fail here, naming the key, never
    inside a worker.  With ``derive_seeds=False`` the spec-level seed is
    ``ProtocolParams.seed`` verbatim; by default each point gets a
    content-derived seed (:func:`derive_point_seed`).
    """

    name: str
    rounds: int = 2
    seeds: Sequence[int] = (0,)
    base: Mapping[str, Any] = field(default_factory=dict)
    grid: Mapping[str, Sequence[Any]] = field(default_factory=dict)
    derive_seeds: bool = True

    def __post_init__(self) -> None:
        if self.rounds <= 0:
            raise ValueError("rounds must be positive")
        if not self.seeds:
            raise ValueError("at least one seed is required")
        if len({int(s) for s in self.seeds}) != len(self.seeds):
            raise ValueError("the 'seeds' axis repeats a value")
        for key, value in self.base.items():
            _check_value(key, value)
        for key, values in self.grid.items():
            if key in self.base:
                raise ValueError(f"{key!r} is in both base and grid")
            if isinstance(values, str) or not values:
                raise ValueError(f"grid axis {key!r} needs a non-empty list")
            if len({canonical_json(v) for v in values}) != len(values):
                raise ValueError(f"grid axis {key!r} repeats a value")
            for value in values:
                _check_value(key, value)

    # -- identity ----------------------------------------------------------
    def to_dict(self) -> dict[str, Any]:
        """Canonical plain-JSON form (the input to :meth:`spec_hash`)."""
        return {
            "name": self.name,
            "rounds": self.rounds,
            "seeds": _jsonable(list(self.seeds)),
            "base": _jsonable(dict(self.base)),
            "grid": _jsonable({k: list(v) for k, v in self.grid.items()}),
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
        """Enumerate every concrete sweep point, in deterministic order:
        the product of the grid axes sorted by key, seeds innermost."""
        names, axes = zip(*sorted(self.grid.items())) if self.grid else ((), ())
        out: list[SweepPoint] = []
        for combo in product(*axes):
            setting = {**self.base, **dict(zip(names, combo))}
            params = {k: v for k, v in setting.items() if k in PARAM_FIELDS}
            adversary = {
                k[len(_ADVERSARY_PREFIX):]: v
                for k, v in setting.items()
                if k.startswith(_ADVERSARY_PREFIX)
            } or None
            for seed in map(int, self.seeds):
                derived = (
                    derive_point_seed(
                        _jsonable(params),
                        None if adversary is None else _jsonable(adversary),
                        seed,
                        self.rounds,
                    )
                    if self.derive_seeds
                    else seed
                )
                out.append(
                    SweepPoint(
                        params=params,
                        adversary=adversary,
                        seed=seed,
                        rounds=self.rounds,
                        capacity_preset=setting.get("capacity_preset"),
                        scenario=setting.get("scenario"),
                        backend=setting.get("backend", "cycledger"),
                        derived_seed=derived,
                    )
                )
        return out
