"""Declarative experiment specifications and parameter sweeps.

SafetyNet's evaluation is a cross-product — workloads x fault models x
CLB sizes x checkpoint intervals x seed replicates (the paper's Figs
5-8).  A :class:`RunSpec` pins down *one* cell of that product as plain
data: everything needed to build and run a :class:`~repro.system.machine.
Machine` deterministically, nothing else.  Because a spec is pure data it
has a stable content hash, which is what makes campaigns resumable (the
:class:`~repro.experiments.store.ResultStore` keys completed runs by it)
and cacheable across processes.

:class:`Sweep` expands a base spec plus a value grid into the full list
of specs::

    sweep = Sweep(
        base=RunSpec(workload="jbb", instructions=8_000),
        grid={"clb_kb": [128, 256, 512], "fault": ["none", "transient"]},
        seeds=3,
    )
    specs = sweep.expand()     # 3 x 2 x 3 = 18 RunSpecs, deterministic order
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field, fields, replace
from functools import cached_property
from itertools import product
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple, Union

from repro.config import parse_shape
from repro.workloads import WORKLOAD_NAMES

FAULT_KINDS = ("none", "transient", "switch", "corrupt", "misroute")
PRESETS = ("sim_scaled", "paper", "tiny")

#: RunSpec fields omitted from the canonical form while at their default.
#: They were added after stores existed; hiding the defaults keeps every
#: pre-existing spec hash (and therefore every ResultStore) valid.
_OPTIONAL_CANONICAL_FIELDS = (
    "torus_width", "torus_height", "protocol", "arbiter")


def _shape_changes(value) -> Dict[str, int]:
    """Expand a ``"WxH"`` string (or ``(W, H)`` pair) into spec fields."""
    if isinstance(value, (tuple, list)):
        width, height = value
    else:
        width, height = parse_shape(value)
    return {"torus_width": int(width), "torus_height": int(height)}


#: Grid keys that are conveniences rather than RunSpec fields; each maps
#: a sweep-axis value onto one or more real field changes.
_GRID_ALIASES = {
    "clb_kb": lambda v: {"clb_bytes": int(v) * 1024},
    "torus": _shape_changes,
}


@dataclass(frozen=True)
class RunSpec:
    """One fully-determined simulation run (a single cell x seed).

    Frozen and hashable; two specs with equal fields are the same run and
    produce the same :class:`~repro.experiments.runner.RunRecord` fields
    (modulo wall-clock timing), whether executed serially, in a worker
    process, or in last week's interrupted campaign.
    """

    # -- what to run ------------------------------------------------------
    workload: str = "apache"
    instructions: int = 8_000          # measured instructions per CPU
    warmup: int = 0                    # warmup instructions per CPU (0 = none)
    seed: int = 1
    max_cycles: int = 30_000_000

    # -- machine shape ----------------------------------------------------
    preset: str = "sim_scaled"         # sim_scaled | paper | tiny
    scale: int = 16                    # divisor for sim_scaled sizes
    torus_width: Optional[int] = None  # None = the preset's own shape
    torus_height: Optional[int] = None
    safetynet: bool = True
    interval: Optional[int] = None     # checkpoint-interval override (cycles)
    clb_bytes: Optional[int] = None    # CLB capacity override (bytes)
    detection_latency: int = 0
    # Coherence protocol / network arbiter sweep axes.  None means the
    # SystemConfig default (mosi / fifo) AND keeps the spec's canonical
    # form — and hash — exactly as before the axes existed.
    protocol: Optional[str] = None     # mosi | mesi | moesi
    arbiter: Optional[str] = None      # fifo | wrr | priority

    # -- fault campaign ---------------------------------------------------
    fault: str = "none"
    fault_period: Optional[int] = None  # cycles between transients
    fault_at: Optional[int] = None      # first/only fault cycle

    # -- escape hatch: extra SystemConfig overrides -----------------------
    config_overrides: Tuple[Tuple[str, Any], ...] = ()

    def __post_init__(self) -> None:
        if self.workload not in WORKLOAD_NAMES:
            raise ValueError(
                f"unknown workload {self.workload!r}; one of {tuple(WORKLOAD_NAMES)}")
        if self.fault not in FAULT_KINDS:
            raise ValueError(f"unknown fault {self.fault!r}; one of {FAULT_KINDS}")
        if self.preset not in PRESETS:
            raise ValueError(f"unknown preset {self.preset!r}; one of {PRESETS}")
        if self.instructions <= 0:
            raise ValueError("instructions must be positive")
        if self.warmup < 0:
            raise ValueError(f"warmup must be >= 0, got {self.warmup}")
        if self.max_cycles < 1:
            raise ValueError(f"max_cycles must be >= 1, got {self.max_cycles}")
        if self.scale < 1:
            raise ValueError(f"scale must be >= 1, got {self.scale}")
        if self.fault_period is not None and self.fault_period <= 0:
            raise ValueError(
                f"fault_period must be positive, got {self.fault_period}")
        if self.fault_at is not None and self.fault_at < 0:
            raise ValueError(f"fault_at must be >= 0, got {self.fault_at}")
        if self.interval is not None and self.interval <= 0:
            raise ValueError(f"interval must be positive, got {self.interval}")
        if self.clb_bytes is not None and self.clb_bytes <= 0:
            raise ValueError(
                f"clb_bytes must be positive, got {self.clb_bytes}")
        if self.detection_latency < 0:
            raise ValueError(
                f"detection_latency must be >= 0, got {self.detection_latency}")
        if (self.torus_width is None) != (self.torus_height is None):
            raise ValueError(
                "torus_width and torus_height must be set together")
        if self.torus_width is not None and (
                self.torus_width < 2 or self.torus_height < 2):
            raise ValueError("torus must be at least 2x2")
        if self.protocol is not None or self.arbiter is not None:
            # Lazy imports keep spec machinery usable without pulling in
            # the whole coherence/network stack at module load.
            if self.protocol is not None:
                from repro.coherence.protocol import PROTOCOLS
                if self.protocol not in PROTOCOLS:
                    raise ValueError(
                        f"unknown protocol {self.protocol!r}; "
                        f"one of {sorted(PROTOCOLS)}")
            if self.arbiter is not None:
                from repro.interconnect.arbiter import ARBITERS
                if self.arbiter not in ARBITERS:
                    raise ValueError(
                        f"unknown arbiter {self.arbiter!r}; "
                        f"one of {sorted(ARBITERS)}")
        # Normalise the override tuple so field order never affects the hash.
        object.__setattr__(
            self, "config_overrides",
            tuple(sorted((str(k), v) for k, v in self.config_overrides)),
        )

    # ------------------------------------------------------------------
    # Identity
    # ------------------------------------------------------------------
    def canonical(self) -> Dict[str, Any]:
        """The spec as a plain JSON-safe dict (stable field order).

        Late-added fields are omitted while at their defaults (see
        ``_OPTIONAL_CANONICAL_FIELDS``): a default-shape spec canonicalises
        — and hashes — exactly as it did before the fields existed.
        """
        out: Dict[str, Any] = {}
        for f in fields(self):
            value = getattr(self, f.name)
            if f.name == "config_overrides":
                value = {k: v for k, v in value}
            if value is None and f.name in _OPTIONAL_CANONICAL_FIELDS:
                continue
            out[f.name] = value
        return out

    @cached_property
    def spec_hash(self) -> str:
        """Stable content hash; the ResultStore's primary key.

        Cached per instance (``cached_property`` writes straight into
        ``__dict__``, sidestepping the frozen guard): campaign dedup and
        store lookups hash each spec once, not per access.
        """
        blob = json.dumps(self.canonical(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode()).hexdigest()[:16]

    def cell(self) -> Dict[str, Any]:
        """The spec minus its seed: the aggregation cell it belongs to."""
        out = self.canonical()
        del out["seed"]
        return out

    @cached_property
    def cell_hash(self) -> str:
        blob = json.dumps(self.cell(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode()).hexdigest()[:16]

    def label(self) -> str:
        """Compact human handle (``jbb/s3@4x8``) for progress lines,
        lease listings, and quarantine reports — identity stays with
        :attr:`spec_hash`; this is for eyes only."""
        shape = (f"@{self.torus_width}x{self.torus_height}"
                 if self.torus_width is not None else "")
        return f"{self.workload}/s{self.seed}{shape}"

    def with_(self, **changes) -> "RunSpec":
        """Functional update (``dataclasses.replace`` with alias support)."""
        for alias, expand in _GRID_ALIASES.items():
            if alias in changes:
                changes.update(expand(changes.pop(alias)))
        return replace(self, **changes)

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "RunSpec":
        kwargs = dict(data)
        overrides = kwargs.pop("config_overrides", {})
        if isinstance(overrides, Mapping):
            overrides = tuple(overrides.items())
        names = {f.name for f in fields(cls)}
        unknown = set(kwargs) - names
        if unknown:
            raise ValueError(f"unknown RunSpec fields: {sorted(unknown)}")
        return cls(config_overrides=tuple(overrides), **kwargs)


@dataclass
class Sweep:
    """A parameter grid over a base spec, expanded to concrete runs.

    ``grid`` maps RunSpec field names (or the ``clb_kb`` convenience
    alias) to value lists; ``seeds`` is either an explicit seed list or a
    replicate count (expanded to ``1..n``).  Expansion order is the
    cartesian product in grid-key insertion order with seeds innermost —
    a pure function of the inputs, so campaigns enumerate identically on
    every machine and every resume.
    """

    base: RunSpec = field(default_factory=RunSpec)
    grid: Mapping[str, Sequence[Any]] = field(default_factory=dict)
    seeds: Union[int, Sequence[int]] = (1,)

    def seed_list(self) -> List[int]:
        if isinstance(self.seeds, int):
            if self.seeds < 1:
                raise ValueError("need at least one seed replicate")
            return list(range(1, self.seeds + 1))
        return list(self.seeds)

    def cells(self) -> int:
        n = 1
        for values in self.grid.values():
            n *= len(values)
        return n

    def expand(self) -> List[RunSpec]:
        keys = list(self.grid)
        value_lists = [list(self.grid[k]) for k in keys]
        for key, values in zip(keys, value_lists):
            if not values:
                raise ValueError(f"grid axis {key!r} has no values")
        specs: List[RunSpec] = []
        for combo in product(*value_lists):
            cell_changes = dict(zip(keys, combo))
            for seed in self.seed_list():
                specs.append(self.base.with_(seed=seed, **cell_changes))
        return specs
