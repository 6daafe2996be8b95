"""Positional, deterministic memory-reference generation.

The op a CPU issues at *position* ``p`` — its count of retired
instructions — is derived from a 64-bit hash of ``(seed, cpu, p)`` via a
splitmix64-style mixer, so the stream needs no mutable state: SafetyNet
recovery rewinds a core simply by resetting its position counter.

An op with gap ``g`` retires ``g + 1`` instructions, so a CPU executes
only the *chain* of positions ``p, p + gap(p) + 1, ...`` from where it
starts; the hashes of the positions in between are never used.

There are two implementations of the stream.  ``op(cpu, p)`` is the
readable reference: one :func:`mix64` call per hash and one helper per
region, returning a :class:`MemOp`.  ``ops_from(cpu, p, end)`` is what
the cores run: it hashes a window of :data:`OP_WINDOW` positions in one
pass over a single Python int (see :func:`chain_hashes`), walks the chain
through it, and decodes the chain's ops into packed ints (``OP_*``
below).  The tests hold the two to the same stream.
"""

from __future__ import annotations

import sys
from array import array
from dataclasses import dataclass, replace
from typing import List, NamedTuple, Optional, Tuple

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


# Packed-op encoding (``ops_from``): one int instead of a MemOp tuple on
# the per-retired-op hot path — ``gap`` above bit 49, the store flag at
# bit 48, the byte address in the low 48 bits.  ``gap`` is at most 255
# (derived from an 8-bit hash field) and addresses are bounded at
# construction, so the fields can never collide.
OP_ADDR_BITS = 48
OP_ADDR_MASK = (1 << OP_ADDR_BITS) - 1
OP_STORE_BIT = 1 << OP_ADDR_BITS
OP_GAP_SHIFT = OP_ADDR_BITS + 1

#: Positions hashed by one ``ops_from`` call.
OP_WINDOW = 1024

# Lane arithmetic: one 64-bit value sits in the low half of each 128-bit
# lane of a single Python int, so one big-int operation applies a mix step
# to every lane.  A lane masked to 64 bits times a 64-bit constant stays
# inside its 128 bits; the same mask clears what a right shift brings down
# from the lane above.  Constants for fewer lanes are these, masked.
_LANE_BYTES = 16
_LANE_BITS = 8 * _LANE_BYTES
_UNIT = int.from_bytes(b"\x01".ljust(_LANE_BYTES, b"\0") * OP_WINDOW,
                       "little")                 # a 1 at each lane's bottom
_RAMP = int.from_bytes(b"".join(i.to_bytes(_LANE_BYTES, "little")
                                for i in range(OP_WINDOW)), "little")
_LANE_M64 = _M64 * _UNIT
_LANE_GOLDEN = _GOLDEN * _UNIT
_BIG_ENDIAN_HOST = sys.byteorder == "big"


def _lane_mask(lanes: int) -> int:
    """64 one bits at the bottom of each of the low ``lanes`` lanes."""
    if lanes == OP_WINDOW:
        return _LANE_M64
    return _LANE_M64 >> ((OP_WINDOW - lanes) * _LANE_BITS)


def _mix_lanes(x: int, mask: int, lanes: int) -> bytes:
    """:func:`mix64` of each of the low ``lanes`` lanes of ``x``, as
    little-endian bytes: lane ``i``'s result is bytes ``16 i .. 16 i + 7``.
    ``mask`` is :func:`_lane_mask` of ``lanes``."""
    x = (x + (_LANE_GOLDEN & mask)) & mask
    x = ((x ^ (x >> 30)) & mask) * 0xBF58476D1CE4E5B9 & mask
    x = ((x ^ (x >> 27)) & mask) * 0x94D049BB133111EB & mask
    # No mask after the last step: what ``>> 31`` brings down from the
    # lane above lands in a lane's upper half, which no reader looks at.
    return (x ^ (x >> 31)).to_bytes(lanes * _LANE_BYTES, "little")


def _low_words(raw: bytes) -> array:
    """The low 64 bits of each 128-bit lane in ``raw``."""
    words = array("Q", raw)
    if _BIG_ENDIAN_HOST:
        words.byteswap()
    return words[::2]


def mix64_each(values: List[int]) -> array:
    """:func:`mix64` of each of ``values`` (64-bit), in one lane pass."""
    words = array("Q", bytes(len(values) * _LANE_BYTES))
    words[::2] = array("Q", values)
    if _BIG_ENDIAN_HOST:
        words.byteswap()
    lanes = len(values)
    return _low_words(_mix_lanes(int.from_bytes(words, "little"),
                                 _lane_mask(lanes), lanes))


def gap_table(gap_mod: int) -> bytes:
    """``b % gap_mod`` for every byte ``b``: what :func:`chain_hashes`
    maps a hash's low byte through to get its op's gap."""
    cycle = bytes(range(min(gap_mod, 256)))
    return (cycle * (256 // len(cycle) + 1))[:256]


def chain_hashes(seed: int, gap_of: bytes, cpu: int, position: int,
                 end: int) -> Tuple[List[int], List[int], bytes, int]:
    """Hash the window ``[position, min(position + OP_WINDOW, end))`` and
    walk the chain through it.

    Each position's hash is ``mix64(seed ^ ((cpu << 40) + p))``, all of
    them in one pass; ``gap_of`` is the stream's :func:`gap_table`.
    Returns ``(offsets, hashes, gaps, next_position)``: the chain's
    offsets from ``position``, the hash at each, the gap at every offset
    in the window, and the first chain position at or past the bound.
    """
    lanes = min(OP_WINDOW, end - position)
    mask = _lane_mask(lanes)
    unit = _UNIT & mask
    raw = _mix_lanes(
        ((((cpu << 40) + position) * unit + (_RAMP & mask)) ^ (seed * unit)),
        mask, lanes)
    gaps = raw[::_LANE_BYTES].translate(gap_of)
    offsets = []
    append = offsets.append
    i = 0
    while i < lanes:
        append(i)
        i += gaps[i] + 1
    words = _low_words(raw)
    return offsets, [words[i] for i in offsets], gaps, position + i


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
    alloc_advance_every: int = 8      # positions per block advance
    # phase behaviour (barnes-like): alternate read and update phases
    phase_len: int = 0                # positions per phase; 0 = no phases
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

    ``op(cpu, position)`` is pure; ``position`` is the count of
    instructions the CPU has retired, which each op advances by
    ``gap + 1``.  Position-tied features (phases, allocation streaming)
    count positions, not ops.

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
        self._gap_of = gap_table(self._gap_mod)
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
        # (ops_from inlines _shared_op/_update_phase_op, which derive
        # these inline; same values, same streams).
        self._ro_hot_blocks = max(1, s.ro_shared_blocks // 16)
        self._rw_hot_blocks = max(1, s.rw_shared_blocks // 8)
        self._part_blocks = max(1, s.rw_shared_blocks // num_cpus)

    # ------------------------------------------------------------------
    def _block_to_addr(self, block: int) -> int:
        return block << self.BLOCK_SHIFT

    def op(self, cpu: int, index: int) -> MemOp:
        """The op at position ``index``: the readable reference that
        :meth:`ops_from` must match."""
        h = mix64(self.seed ^ ((cpu << 40) + index))
        gap = (h & 0xFF) % self._gap_mod
        r_store = (h >> 8) & 0xFFFF
        r_region = (h >> 24) & 0xFFFF
        r_addr = (h >> 40) & 0xFFFFFF
        h2 = mix64(h)
        r_hot = h2 & 0xFFFF
        r_addr2 = (h2 >> 16) & 0xFFFFFFFF
        s = self.spec
        if s.phase_len and ((index // s.phase_len) & 1):
            return self._update_phase_op(cpu, index, gap, r_store, r_addr,
                                         r_addr2)
        if r_region < self._t_shared:
            return self._shared_op(cpu, index, gap, r_store, r_hot, r_addr,
                                   r_addr2)
        return self._private_op(cpu, index, gap, r_store, r_hot, r_addr,
                                r_addr2)

    def ops_from(self, cpu: int, position: int,
                 end: int) -> Tuple[array, int]:
        """Packed ops along the chain from ``position``, one window's worth.

        Returns ``(ops, next_position)``: the packed op at every chain
        position ``p`` with ``position <= p < min(position + OP_WINDOW,
        end)``, in order, and the first chain position at or past that
        bound.  ``position`` must itself be on the chain the caller walks.
        ``ops`` is an ``array('Q')``: a core keeps one window of them,
        8 bytes an op.

        This is the per-instruction hot path of the whole simulator.  The
        first mix runs over the whole window (:func:`chain_hashes`), the
        second only over the chain's lanes, and the region helpers below
        are inlined into one decode loop over locals.
        """
        offsets, hashes, gaps, next_position = chain_hashes(
            self.seed, self._gap_of, cpu, position, end)
        hashes2 = mix64_each(hashes)
        s = self.spec
        phase_len = s.phase_len
        t_update_store = self._t_update_store
        part = self._part_blocks
        part_base = self._rw_base + cpu * part
        t_shared = self._t_shared
        t_ro, t_mig = self._t_ro, self._t_mig
        t_hot = self._t_hot
        ro_base, ro_blocks, ro_hot = (self._ro_base, s.ro_shared_blocks,
                                      self._ro_hot_blocks)
        mig_base, mig_blocks = self._mig_base, s.migratory_blocks
        t_mig_store = self._t_mig_store
        rw_base, rw_blocks, rw_hot = (self._rw_base, s.rw_shared_blocks,
                                      self._rw_hot_blocks)
        t_rw_store = self._t_rw_store
        base = self._priv_base + cpu * self._priv_stride
        alloc_base = base + self._alloc_off
        t_store, t_alloc = self._t_store, self._t_alloc
        alloc_every, alloc_blocks = s.alloc_advance_every, s.alloc_region_blocks
        store_hot, private_blocks, private_hot = (
            s.store_hot_blocks, s.private_blocks, s.private_hot_blocks)
        shift = self.BLOCK_SHIFT
        out = array("Q")
        append = out.append
        for i, h, h2 in zip(offsets, hashes, hashes2):
            g = gaps[i] << OP_GAP_SHIFT
            r_store = (h >> 8) & 0xFFFF
            if phase_len and (((position + i) // phase_len) & 1):
                # Barnes-like update phase (_update_phase_op).
                block = part_base + ((h2 >> 16) & 0xFFFFFFFF) % part
                if r_store < t_update_store:
                    append(g | OP_STORE_BIT | (block << shift))
                else:
                    append(g | (block << shift))
            elif ((h >> 24) & 0xFFFF) < t_shared:
                # Shared regions (_shared_op).
                sub = (h >> 40) & 0xFFFF
                r_addr2 = (h2 >> 16) & 0xFFFFFFFF
                if sub < t_ro and ro_blocks:
                    if (h2 & 0xFFFF) < t_hot:
                        block = ro_base + r_addr2 % ro_hot
                    else:
                        block = ro_base + r_addr2 % ro_blocks
                    append(g | (block << shift))
                elif sub < t_mig and mig_blocks:
                    block = mig_base + r_addr2 % mig_blocks
                    if r_store < t_mig_store:
                        append(g | OP_STORE_BIT | (block << shift))
                    else:
                        append(g | (block << shift))
                else:
                    if (h2 & 0xFFFF) < t_hot:
                        block = rw_base + r_addr2 % rw_hot
                    else:
                        block = rw_base + r_addr2 % rw_blocks
                    if r_store < t_rw_store:
                        append(g | OP_STORE_BIT | (block << shift))
                    else:
                        append(g | (block << shift))
            elif r_store < t_store:
                # Private store (_private_op).
                if t_alloc and ((h >> 40) & 0xFFFF) < t_alloc:
                    block = alloc_base + (
                        ((position + i) // alloc_every) % alloc_blocks)
                elif (h2 & 0xFFFF) < t_hot:
                    block = base + ((h2 >> 16) & 0xFFFFFFFF) % store_hot
                else:
                    block = base + ((h2 >> 16) & 0xFFFFFFFF) % private_blocks
                append(g | OP_STORE_BIT | (block << shift))
            elif (h2 & 0xFFFF) < t_hot:
                # Private load (_private_op), the common case.
                append(g | ((base + ((h2 >> 16) & 0xFFFFFFFF) % private_hot)
                            << shift))
            else:
                append(g | ((base + ((h2 >> 16) & 0xFFFFFFFF) % private_blocks)
                            << shift))
        return out, next_position

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
