"""Positional, deterministic memory-reference generation.

Each op is derived from a 64-bit hash of ``(seed, cpu, index)`` via a
splitmix64-style mixer, so the stream needs no mutable state: SafetyNet
recovery rewinds a core simply by resetting its position counter.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import NamedTuple, Optional

_M64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def mix64(x: int) -> int:
    """splitmix64 finaliser: a fast, well-distributed 64-bit mixer."""
    x = (x + _GOLDEN) & _M64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _M64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _M64
    return x ^ (x >> 31)


class MemOp(NamedTuple):
    """One memory operation: ``gap`` non-memory instructions precede it."""

    gap: int
    is_store: bool
    addr: int  # byte address, block aligned


# Packed-op encoding (``op_packed``): one int instead of a MemOp tuple on
# the per-retired-op hot path — ``gap`` above bit 49, the store flag at
# bit 48, the byte address in the low 48 bits.  ``gap`` is at most 255
# (derived from an 8-bit hash field) and addresses are bounded at
# construction, so the fields can never collide.
OP_ADDR_BITS = 48
OP_ADDR_MASK = (1 << OP_ADDR_BITS) - 1
OP_STORE_BIT = 1 << OP_ADDR_BITS
OP_GAP_SHIFT = OP_ADDR_BITS + 1


@dataclass(frozen=True)
class WorkloadSpec:
    """Knobs that shape a workload's memory-reference character.

    Region fractions are of *shared* accesses; the shared address space is
    laid out as [read-only | read-write | migratory] followed by per-CPU
    private regions (and an optional per-CPU allocation-streaming region).

    Footprint fields are calibrated for ``reference_cpus`` processors
    (the paper's 16); :meth:`for_cpus` rescales the shared pools so the
    same preset exerts comparable per-CPU pressure on any machine shape.
    """

    name: str = "synthetic"
    # instruction mix
    mean_gap: int = 2                 # avg non-memory instructions per memop
    store_frac: float = 0.25          # stores as a fraction of memory ops
    # footprint (in 64-byte blocks)
    private_blocks: int = 4096        # per CPU
    ro_shared_blocks: int = 2048      # read-only shared (file cache, code)
    rw_shared_blocks: int = 2048      # read-write shared (heap, DB buffer)
    migratory_blocks: int = 32        # lock/record-style migratory set
    # access behaviour
    shared_frac: float = 0.20         # memory ops that touch shared data
    ro_frac: float = 0.50             # of shared accesses: read-only region
    mig_frac: float = 0.10            # of shared accesses: migratory region
    mig_store_frac: float = 0.50      # stores within migratory accesses
    rw_store_frac: float = 0.08       # stores within read-write shared accesses
    hot_frac: float = 0.90            # accesses that hit the hot subset
    private_hot_blocks: int = 256     # hot subset of the private region
    store_hot_blocks: int = 96        # hot subset for private stores
    # allocation streaming (SPECjbb-like): a rolling window of fresh blocks
    alloc_frac: float = 0.0           # of private stores that stream
    alloc_region_blocks: int = 8192   # per CPU
    alloc_advance_every: int = 8      # ops per block advance (write bursts)
    # phase behaviour (barnes-like): alternate read and update phases
    phase_len: int = 0                # 0 = no phases
    update_store_frac: float = 0.70   # store fraction in update phases
    # machine shape the footprints above were calibrated for
    reference_cpus: int = 16

    def for_cpus(self, num_cpus: int) -> "WorkloadSpec":
        """Rescale the *shared* footprint for a ``num_cpus``-way machine.

        Shared pools (read-only, read-write, migratory) are machine-wide
        resources: at the reference CPU count each CPU sees ``pool /
        reference_cpus`` blocks of pressure, so the pools grow or shrink
        proportionally with the CPU count to keep per-CPU sharing,
        contention, and invalidation rates comparable across 2x2, 4x4,
        4x8, and 8x8 tori.  Per-CPU regions (private, hot subsets,
        allocation streaming) are already per-CPU strides and stay fixed.
        A ``num_cpus`` equal to ``reference_cpus`` is the identity — the
        default 16-way machines are bit-for-bit unaffected.
        """
        if num_cpus == self.reference_cpus:
            return self
        if num_cpus < 1:
            raise ValueError("need at least one CPU")

        def prop(n: int, floor: int = 8) -> int:
            return max(floor, round(n * num_cpus / self.reference_cpus))

        return replace(
            self,
            ro_shared_blocks=prop(self.ro_shared_blocks),
            rw_shared_blocks=prop(self.rw_shared_blocks),
            migratory_blocks=prop(self.migratory_blocks, floor=4),
            reference_cpus=num_cpus,
        )

    def scaled(self, factor: int) -> "WorkloadSpec":
        """Shrink all footprints by ``factor`` (for tractable sim runs),
        preserving mix, sharing, and locality ratios."""
        if factor <= 1:
            return self

        def shrink(n: int, floor: int = 8) -> int:
            return max(floor, n // factor)

        return replace(
            self,
            private_blocks=shrink(self.private_blocks),
            ro_shared_blocks=shrink(self.ro_shared_blocks),
            rw_shared_blocks=shrink(self.rw_shared_blocks),
            migratory_blocks=max(8, self.migratory_blocks),
            private_hot_blocks=shrink(self.private_hot_blocks),
            store_hot_blocks=shrink(self.store_hot_blocks, floor=4),
            alloc_region_blocks=shrink(self.alloc_region_blocks),
        )


class SyntheticWorkload:
    """Turns a :class:`WorkloadSpec` into per-CPU op streams.

    ``op(cpu, index)`` is pure; ``index`` is the count of memory ops the
    CPU has retired.  The instruction count advances by ``gap + 1`` per op.

    The spec is made topology-aware here (:meth:`WorkloadSpec.for_cpus`):
    every construction path — presets, tests, ``build_machine`` — gets
    shared pools sized for the actual CPU count.
    """

    BLOCK_SHIFT = 6  # 64-byte blocks

    def __init__(self, spec: WorkloadSpec, num_cpus: int, seed: int = 1) -> None:
        spec = spec.for_cpus(num_cpus)
        self.spec = spec
        self.num_cpus = num_cpus
        self.seed = mix64(seed)
        s = spec
        # Shared layout (block numbers).
        self._ro_base = 0
        self._rw_base = s.ro_shared_blocks
        self._mig_base = self._rw_base + s.rw_shared_blocks
        shared_total = self._mig_base + s.migratory_blocks
        # Private and allocation regions per CPU.
        self._priv_base = shared_total
        stride = s.private_blocks + s.alloc_region_blocks
        self._priv_stride = stride
        self._alloc_off = s.private_blocks
        self.total_blocks = shared_total + num_cpus * stride
        if (self.total_blocks << self.BLOCK_SHIFT) > OP_ADDR_MASK:
            raise ValueError(
                f"footprint of {self.total_blocks} blocks overflows the "
                f"{OP_ADDR_BITS}-bit packed-op address field")
        # Probability thresholds as 16-bit integers.
        self._gap_mod = 2 * s.mean_gap + 1
        self._t_store = int(s.store_frac * 65536)
        self._t_shared = int(s.shared_frac * 65536)
        self._t_ro = int(s.ro_frac * 65536)
        self._t_mig = int((s.ro_frac + s.mig_frac) * 65536)
        self._t_mig_store = int(s.mig_store_frac * 65536)
        self._t_rw_store = int(s.rw_store_frac * 65536)
        self._t_hot = int(s.hot_frac * 65536)
        self._t_alloc = int(s.alloc_frac * 65536)
        self._t_update_store = int(s.update_store_frac * 65536)
        # Hot-subset and partition sizes precomputed off the hot path
        # (op_packed inlines _shared_op/_update_phase_op, which derive
        # these inline; same values, same streams).
        self._ro_hot_blocks = max(1, s.ro_shared_blocks // 16)
        self._rw_hot_blocks = max(1, s.rw_shared_blocks // 8)
        self._part_blocks = max(1, s.rw_shared_blocks // num_cpus)

    # ------------------------------------------------------------------
    def _block_to_addr(self, block: int) -> int:
        return block << self.BLOCK_SHIFT

    def op(self, cpu: int, index: int) -> MemOp:
        """Tuple view of :meth:`op_packed` — the oracle/compat interface."""
        p = self.op_packed(cpu, index)
        return MemOp(p >> OP_GAP_SHIFT, bool(p & OP_STORE_BIT),
                     p & OP_ADDR_MASK)

    def op_packed(self, cpu: int, index: int) -> int:
        # This is the per-instruction hot path of the whole simulator (one
        # call per retired memory op): the splitmix64 double-mix is inlined
        # rather than calling mix64 twice, the dominant private-region
        # branch is flattened from _private_op, and the result is a packed
        # int (gap/store/addr, see OP_* above) instead of a MemOp
        # allocation.  The readable MemOp helpers stay below as the
        # reference; tests/test_deadlines_and_profile.py holds the two
        # together.  Same math, same stream.
        s = self.spec
        x = (self.seed ^ ((cpu << 40) + index)) + _GOLDEN & _M64
        x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _M64
        x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _M64
        h = x ^ (x >> 31)
        gap = (h & 0xFF) % self._gap_mod
        r_store = (h >> 8) & 0xFFFF
        r_region = (h >> 24) & 0xFFFF
        r_addr = (h >> 40) & 0xFFFFFF
        x = (h + _GOLDEN) & _M64
        x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _M64
        x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _M64
        h2 = x ^ (x >> 31)
        r_hot = h2 & 0xFFFF
        r_addr2 = (h2 >> 16) & 0xFFFFFFFF

        if s.phase_len and ((index // s.phase_len) & 1):
            # Barnes-like update phase (packed _update_phase_op).
            part = self._part_blocks
            block = self._rw_base + cpu * part + r_addr2 % part
            out = (gap << OP_GAP_SHIFT) | (block << self.BLOCK_SHIFT)
            if r_store < self._t_update_store:
                out |= OP_STORE_BIT
        elif r_region < self._t_shared:
            # Shared regions (packed _shared_op).
            sub = r_addr & 0xFFFF
            if sub < self._t_ro and s.ro_shared_blocks:
                if r_hot < self._t_hot:
                    block = self._ro_base + r_addr2 % self._ro_hot_blocks
                else:
                    block = self._ro_base + r_addr2 % s.ro_shared_blocks
                out = (gap << OP_GAP_SHIFT) | (block << self.BLOCK_SHIFT)
            elif sub < self._t_mig and s.migratory_blocks:
                block = self._mig_base + r_addr2 % s.migratory_blocks
                out = (gap << OP_GAP_SHIFT) | (block << self.BLOCK_SHIFT)
                if r_store < self._t_mig_store:
                    out |= OP_STORE_BIT
            else:
                if r_hot < self._t_hot:
                    block = self._rw_base + r_addr2 % self._rw_hot_blocks
                else:
                    block = self._rw_base + r_addr2 % s.rw_shared_blocks
                out = (gap << OP_GAP_SHIFT) | (block << self.BLOCK_SHIFT)
                if r_store < self._t_rw_store:
                    out |= OP_STORE_BIT
        else:
            # Private region (flattened _private_op: the common case).
            base = self._priv_base + cpu * self._priv_stride
            if r_store < self._t_store:
                if self._t_alloc and (r_addr & 0xFFFF) < self._t_alloc:
                    block = base + self._alloc_off + (
                        (index // s.alloc_advance_every) % s.alloc_region_blocks
                    )
                elif r_hot < self._t_hot:
                    block = base + r_addr2 % s.store_hot_blocks
                else:
                    block = base + r_addr2 % s.private_blocks
                out = ((gap << OP_GAP_SHIFT) | OP_STORE_BIT
                       | (block << self.BLOCK_SHIFT))
            else:
                if r_hot < self._t_hot:
                    block = base + r_addr2 % s.private_hot_blocks
                else:
                    block = base + r_addr2 % s.private_blocks
                out = (gap << OP_GAP_SHIFT) | (block << self.BLOCK_SHIFT)
        return out

    # ------------------------------------------------------------------
    def _shared_op(self, cpu: int, index: int, gap: int, r_store: int,
                   r_hot: int, r_addr: int, r_addr2: int) -> MemOp:
        s = self.spec
        sub = r_addr & 0xFFFF
        if sub < self._t_ro and s.ro_shared_blocks:
            # Read-only region: loads with hot/cold locality.
            if r_hot < self._t_hot:
                block = self._ro_base + r_addr2 % max(1, s.ro_shared_blocks // 16)
            else:
                block = self._ro_base + r_addr2 % s.ro_shared_blocks
            return MemOp(gap, False, self._block_to_addr(block))
        if sub < self._t_mig and s.migratory_blocks:
            # Migratory region: lock-style read-modify-write traffic; CPUs
            # collide on a small block set, causing ownership transfers.
            block = self._mig_base + r_addr2 % s.migratory_blocks
            is_store = r_store < self._t_mig_store
            return MemOp(gap, is_store, self._block_to_addr(block))
        # Read-write shared region (read-mostly: invalidations are costly).
        if r_hot < self._t_hot:
            block = self._rw_base + r_addr2 % max(1, s.rw_shared_blocks // 8)
        else:
            block = self._rw_base + r_addr2 % s.rw_shared_blocks
        return MemOp(gap, r_store < self._t_rw_store, self._block_to_addr(block))

    def _private_op(self, cpu: int, index: int, gap: int, r_store: int,
                    r_hot: int, r_addr: int, r_addr2: int) -> MemOp:
        s = self.spec
        base = self._priv_base + cpu * self._priv_stride
        is_store = r_store < self._t_store
        if is_store:
            if self._t_alloc and (r_addr & 0xFFFF) < self._t_alloc:
                # Allocation streaming: a rolling pointer walks a large
                # region, touching fresh blocks (defeats the CLB's
                # once-per-interval filter, like a copying GC / allocator).
                block = base + self._alloc_off + (
                    (index // s.alloc_advance_every) % s.alloc_region_blocks
                )
                return MemOp(gap, True, self._block_to_addr(block))
            if r_hot < self._t_hot:
                block = base + r_addr2 % s.store_hot_blocks
            else:
                block = base + r_addr2 % s.private_blocks
            return MemOp(gap, True, self._block_to_addr(block))
        if r_hot < self._t_hot:
            block = base + r_addr2 % s.private_hot_blocks
        else:
            block = base + r_addr2 % s.private_blocks
        return MemOp(gap, False, self._block_to_addr(block))

    def _update_phase_op(self, cpu: int, index: int, gap: int, r_store: int,
                         r_addr: int, r_addr2: int) -> MemOp:
        """Barnes-like update phase: each CPU mostly stores to its own
        partition of the shared read-write region (bodies it owns), which
        other CPUs read in the next phase."""
        s = self.spec
        part = max(1, s.rw_shared_blocks // self.num_cpus)
        block = self._rw_base + cpu * part + r_addr2 % part
        is_store = r_store < self._t_update_store
        return MemOp(gap, is_store, self._block_to_addr(block))
