"""System configuration (the paper's Table 2, plus SafetyNet knobs).

Two presets are provided:

* :meth:`SystemConfig.paper` — the paper's Table 2 parameters verbatim
  (16 processors, 4 MB L2, 512 kB CLBs, 100 000-cycle checkpoint interval,
  2D torus at 6.4 GB/s links).  Running full commercial workloads at this
  scale needs a C++ simulator; in pure Python it is usable for short runs.
* :meth:`SystemConfig.sim_scaled` — every size scaled down by a constant
  factor (cache, footprint, interval, CLB) so that miss rates, logging
  rates per 1000 instructions, and CLB pressure match the paper's regime
  while a run completes in seconds.  Its docstring names the ratios the
  scaling keeps fixed.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field, replace
from typing import Dict, Optional, Tuple

from repro.interconnect.messages import CONTROL_MESSAGE_BYTES, DATA_MESSAGE_BYTES


def parse_shape(text: str) -> Tuple[int, int]:
    """Parse a ``"WxH"`` machine-shape string (e.g. ``"4x8"``)."""
    match = re.fullmatch(r"\s*(\d+)\s*[xX]\s*(\d+)\s*", str(text))
    if not match:
        raise ValueError(f"machine shape must look like '4x4', got {text!r}")
    return int(match.group(1)), int(match.group(2))


#: Every integer field that counts cycles or things, as (least legal
#: value, unit, fields).  A delay may be 0 cycles.  A period or timeout
#: is at least one cycle: a zero resync interval re-arms at the cycle it
#: fires, so time stops, and a zero timeout fires before any reply can
#: arrive.  Anything else would fail mid-run (a fractional delay
#: schedules a non-integer cycle, a negative one a past cycle, a zero
#: associativity divides by zero) or finish wrongly (an empty switch
#: buffer stalls every switch entry).  ``home_request_timeout`` is
#: checked only when set.
_INT_FIELDS = (
    (0, " (cycles)", ("memory_latency", "directory_latency", "switch_latency",
                      "link_latency", "store_log_penalty",
                      "register_checkpoint_cycles", "service_broadcast_latency",
                      "recovery_fixed_latency", "nack_retry_delay",
                      "store_throttle_delay", "max_clock_skew")),
    (1, " (cycles)", ("checkpoint_interval", "validation_resync_interval",
                      "request_timeout", "watchdog_timeout",
                      "home_request_timeout")),
    (0, "", ("home_queue_depth", "max_recoveries")),
    (1, "", ("switch_buffer_messages", "l1_assoc", "l2_assoc")),
)


@dataclass(frozen=True)
class SystemConfig:
    """All architectural parameters for one simulated machine."""

    # -- machine shape ---------------------------------------------------
    num_processors: int = 16
    torus_width: int = 4
    torus_height: int = 4

    # -- memory system (Table 2) -----------------------------------------
    block_size: int = 64              # bytes per coherence block
    l1_size: int = 128 * 1024         # bytes (I and D each, modelled merged)
    l1_assoc: int = 4
    l2_size: int = 4 * 1024 * 1024    # bytes
    l2_assoc: int = 4
    memory_size: int = 2 * 1024**3    # bytes (2 GB)
    memory_latency: int = 70          # cycles for a DRAM access at the home
    directory_latency: int = 10       # directory lookup/update at the home

    # -- interconnect (Table 2: 2D torus, 6.4 GB/s links) -----------------
    link_bandwidth_bytes_per_cycle: float = 6.4   # 6.4 GB/s at 1 GHz
    switch_latency: int = 8           # cycles per switch hop (pipelined)
    link_latency: int = 4             # cycles of wire/SerDes per link
    switch_buffer_messages: int = 64  # per half-switch buffer capacity

    # -- cache access timing (a hit costs the core's 1 cycle) -------------
    store_log_penalty: int = 8        # paper: 8 cycles to read old block out

    # -- SafetyNet ---------------------------------------------------------
    safetynet_enabled: bool = True
    checkpoint_interval: int = 100_000      # cycles between checkpoint-clock edges
    outstanding_checkpoints: int = 4        # intervals pending validation
    clb_size_bytes: int = 512 * 1024        # total CLB capacity per controller
    clb_entry_bytes: int = 72               # 8-byte address + 64-byte block
    register_checkpoint_cycles: int = 100   # paper's conservative charge
    max_clock_skew: int = 8                 # cycles of checkpoint-clock skew
    #: How long an un-acknowledged sign-off announcement stands before it
    #: is re-sent (dropped-coordination-message insurance, paper §3.5).
    #: Well above any clean round trip, well below the watchdog.
    validation_resync_interval: int = 16_000

    # -- fault handling ------------------------------------------------------
    request_timeout: int = 20_000           # cycles before a requestor times out
    #: Optional home-side open-transaction timeout (cycles).  None (the
    #: default) preserves the historical behaviour: an orphaned home
    #: transaction is caught only by the requestor's timeout or the
    #: recovery-point watchdog.  When set, each home arms a deadline per
    #: open transaction (in a :class:`~repro.sim.deadlines.DeadlineTable`,
    #: like the requestor's) and reports a fault if it outlives the bound.
    home_request_timeout: Optional[int] = None
    watchdog_timeout: int = 1_000_000       # recovery-point stall watchdog
    service_broadcast_latency: int = 200    # out-of-band controller channel
    recovery_fixed_latency: int = 2_000     # drain + restore orchestration cost
    max_recoveries: int = 64                # give up (livelock guard) after this

    # -- home/directory -------------------------------------------------------
    home_queue_depth: int = 16               # queued requests per busy block
    nack_retry_delay: int = 400              # requestor backoff before retry
    store_throttle_delay: int = 100          # CPU backoff when CLB is full

    # -- protocol / arbitration ----------------------------------------------
    #: Coherence protocol (``repro.coherence.protocol.PROTOCOLS``).  The
    #: default ``mosi`` is the paper's protocol and the bit-identity
    #: oracle; ``mesi`` adds an exclusive-clean state (silent E→M
    #: upgrades, clean evictions without writeback); ``moesi`` grafts E
    #: onto the existing O machinery.  Checkpoint/recovery is
    #: protocol-agnostic (see tests/test_protocols.py).
    protocol: str = "mosi"
    #: Network arbitration policy
    #: (``repro.interconnect.arbiter.ARBITERS``).  The default ``fifo``
    #: keeps the historical message-id order on link claims and
    #: end-of-cycle deliveries (the bit-identity oracle);
    #: ``wrr`` rotates fairness across input directions per contended
    #: cycle; ``priority`` serves coherence-class (control) messages
    #: before data, with aging as a starvation bound.
    arbiter: str = "fifo"

    def __post_init__(self) -> None:
        if self.num_processors != self.torus_width * self.torus_height:
            raise ValueError(
                f"num_processors={self.num_processors} must equal "
                f"torus {self.torus_width}x{self.torus_height}"
            )
        if self.block_size <= 0 or self.block_size & (self.block_size - 1):
            raise ValueError("block_size must be a positive power of two")
        if self.outstanding_checkpoints < 1:
            raise ValueError("need at least one outstanding checkpoint")
        if self.clb_entry_bytes < self.block_size + 8:
            raise ValueError("CLB entry must hold an address plus a block")
        if self.clb_size_bytes < self.clb_entry_bytes:
            raise ValueError(
                f"CLB of {self.clb_size_bytes} bytes holds no "
                f"{self.clb_entry_bytes}-byte entry")
        # A zero bandwidth would divide by zero at the first send, a
        # negative one serialise every message in one cycle.
        if not self.link_bandwidth_bytes_per_cycle > 0:
            raise ValueError(
                "link_bandwidth_bytes_per_cycle must be > 0, got "
                f"{self.link_bandwidth_bytes_per_cycle!r}")
        for least, unit, names in _INT_FIELDS:
            for name in names:
                value = getattr(self, name)
                if value is None and name == "home_request_timeout":
                    continue
                if not isinstance(value, int) or value < least:
                    raise ValueError(f"{name} must be an int >= {least}"
                                     f"{unit}, got {value!r}")
        # Lazy imports: repro.coherence.cache / repro.interconnect.network
        # import this module, so validating eagerly at module scope would
        # be circular.
        from repro.coherence.protocol import PROTOCOLS
        from repro.interconnect.arbiter import ARBITERS

        if self.protocol not in PROTOCOLS:
            raise ValueError(
                f"unknown protocol {self.protocol!r}; one of {sorted(PROTOCOLS)}"
            )
        if self.arbiter not in ARBITERS:
            raise ValueError(
                f"unknown arbiter {self.arbiter!r}; one of {sorted(ARBITERS)}"
            )
        min_latency = self.min_network_latency
        if self.safetynet_enabled and self.max_clock_skew >= min_latency:
            raise ValueError(
                "checkpoint-clock skew must be below the minimum network "
                f"latency ({self.max_clock_skew} >= {min_latency}); the "
                "logical time base would violate causality (paper S3.2)"
            )

    # -- derived quantities -------------------------------------------------
    @property
    def shape(self) -> Tuple[int, int]:
        return self.torus_width, self.torus_height

    @property
    def block_bits(self) -> int:
        return self.block_size.bit_length() - 1

    def home_node(self, addr: int) -> int:
        """Home-node hash: block-interleaved across however many nodes the
        machine has (the machine-wide replacement for hard-coded ``% 16``)."""
        return (addr >> self.block_bits) % self.num_processors

    @property
    def torus_diameter_hops(self) -> int:
        """Worst-case switch-to-switch hop distance under minimal (ring)
        routing: half of each dimension's ring, plus one crossover."""
        return self.torus_width // 2 + self.torus_height // 2 + 1

    @property
    def blocks_per_cache(self) -> int:
        return self.l2_size // self.block_size

    @property
    def cache_sets(self) -> int:
        return self.blocks_per_cache // self.l2_assoc

    @property
    def clb_entries(self) -> int:
        """Total CLB entries per controller (all intervals combined)."""
        return self.clb_size_bytes // self.clb_entry_bytes

    @property
    def min_network_latency(self) -> int:
        """Lower bound on any node-to-node message latency (one hop)."""
        return self.switch_latency + self.link_latency

    @property
    def detection_latency_tolerance(self) -> int:
        """Paper S3.4: outstanding checkpoints x interval length."""
        return self.outstanding_checkpoints * self.checkpoint_interval

    @property
    def data_serialization_cycles(self) -> int:
        return max(1, round(DATA_MESSAGE_BYTES / self.link_bandwidth_bytes_per_cycle))

    @property
    def control_serialization_cycles(self) -> int:
        return max(1, round(CONTROL_MESSAGE_BYTES / self.link_bandwidth_bytes_per_cycle))

    def with_overrides(self, **kwargs) -> "SystemConfig":
        """Return a copy with the given fields replaced."""
        return replace(self, **kwargs)

    # -- presets --------------------------------------------------------------
    @classmethod
    def paper(cls, **overrides) -> "SystemConfig":
        """Table 2 parameters verbatim."""
        return cls(**overrides)

    @classmethod
    def sim_scaled(cls, scale: int = 16, **overrides) -> "SystemConfig":
        """Paper parameters with sizes/intervals divided by ``scale``.

        Pass the same ``scale`` to the workload presets: the scaling keeps
        the ratios that drive the paper's results fixed — (footprint :
        cache size), (checkpoint interval : instructions per interval),
        (CLB capacity : logging rate x interval x outstanding checkpoints).
        Raises ``ValueError`` for ``scale < 1``.
        """
        if scale < 1:
            raise ValueError(f"scale must be >= 1, got {scale}")
        base = cls(
            l1_size=(128 * 1024) // scale,
            l2_size=(4 * 1024 * 1024) // scale,
            memory_size=(2 * 1024**3) // scale,
            checkpoint_interval=max(2_000, 200_000 // scale),
            clb_size_bytes=(512 * 1024) // scale,
            request_timeout=6_000,
            watchdog_timeout=200_000,
            validation_resync_interval=4_000,
        )
        if overrides:
            base = base.with_overrides(**overrides)
        return base

    @classmethod
    def tiny(cls, **overrides) -> "SystemConfig":
        """A 2x2 machine for unit tests."""
        base = cls(
            num_processors=4,
            torus_width=2,
            torus_height=2,
            l1_size=4 * 1024,
            l2_size=16 * 1024,
            memory_size=1024 * 1024,
            checkpoint_interval=2_000,
            clb_size_bytes=32 * 1024,
            request_timeout=4_000,
            watchdog_timeout=100_000,
            validation_resync_interval=1_600,
            memory_latency=20,
        )
        if overrides:
            base = base.with_overrides(**overrides)
        return base

    @classmethod
    def from_shape(cls, width: int, height: int, *, preset: str = "sim_scaled",
                   scale: int = 16, **overrides) -> "SystemConfig":
        """A ``width x height`` torus machine with size-aware defaults.

        The paper's presets are all 4x4 (``tiny`` is 2x2); this is the
        constructor for every other shape.  Parameters that should track
        machine size are re-derived from the preset's values:

        * ``num_processors`` / ``torus_width`` / ``torus_height`` follow the
          shape (home-node interleaving and workload layout follow
          ``num_processors`` automatically).
        * ``request_timeout``, ``watchdog_timeout``, and
          ``service_broadcast_latency`` scale with the network diameter —
          a request on an 8x8 torus legitimately takes twice the 4x4
          round-trip before a timeout means "lost message" rather than
          "far away".

        Per-node quantities (cache sizes, per-controller CLB capacity, the
        checkpoint interval) are intentionally *not* scaled: the paper
        sizes them per controller, so total capacity already grows with
        the node count.  Explicit ``overrides`` always win.  Requesting
        the preset's own shape returns that preset unchanged.
        """
        if width < 2 or height < 2:
            raise ValueError("torus must be at least 2x2")
        if preset == "paper":
            base = cls.paper()
        elif preset == "tiny":
            base = cls.tiny()
        elif preset == "sim_scaled":
            base = cls.sim_scaled(scale)
        else:
            raise ValueError(
                f"unknown preset {preset!r}; one of ('sim_scaled', 'paper', 'tiny')")
        reshaped = base.with_overrides(
            num_processors=width * height,
            torus_width=width,
            torus_height=height,
        )
        ratio = max(1.0, reshaped.torus_diameter_hops / base.torus_diameter_hops)
        derived = {
            "request_timeout": round(base.request_timeout * ratio),
            "watchdog_timeout": round(base.watchdog_timeout * ratio),
            "service_broadcast_latency": round(
                base.service_broadcast_latency * ratio),
        }
        derived.update(overrides)
        return reshaped.with_overrides(**derived)

    def table2(self) -> Dict[str, str]:
        """Render the configuration as the paper's Table 2 rows."""
        return {
            "Processors": f"{self.num_processors}, "
            f"{self.torus_width}x{self.torus_height} torus",
            "L1 Cache (I and D)": f"{self.l1_size // 1024} KB, {self.l1_assoc}-way set associative",
            "L2 Cache": f"{self.l2_size // (1024 * 1024)} MB, {self.l2_assoc}-way set-associative"
            if self.l2_size >= 1024 * 1024
            else f"{self.l2_size // 1024} KB, {self.l2_assoc}-way set-associative",
            "Memory": f"{self.memory_size // 1024**3} GB, {self.block_size} byte blocks"
            if self.memory_size >= 1024**3
            else f"{self.memory_size // 1024**2} MB, {self.block_size} byte blocks",
            "Miss From Memory": f"{self.uncontended_2hop_latency()} ns (uncontended, 2-hop)",
            "Checkpoint Log Buffer": f"{self.clb_size_bytes // 1024} kbytes total, "
            f"{self.clb_entry_bytes} byte entries",
            "Interconnection Network": f"{self.torus_width}x{self.torus_height} "
            "2D torus, link b/w = "
            f"{self.link_bandwidth_bytes_per_cycle:.1f} GB/sec",
            "Checkpoint Interval": f"{self.checkpoint_interval:,} cycles",
        }

    def uncontended_2hop_latency(self) -> int:
        """Estimated request+response latency for an average-distance
        memory miss (the paper's Table 2 quotes 180 ns)."""
        avg_hops = (self.torus_width // 2 + self.torus_height // 2)
        one_way = avg_hops * (self.switch_latency + self.link_latency)
        request = one_way + self.control_serialization_cycles
        response = one_way + self.data_serialization_cycles
        return request + self.memory_latency + response
