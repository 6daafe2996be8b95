"""Random protocol tester (the paper's methodology, after Wood et al. [47]).

"To exercise the protocol implementation, we drove it for billions of
cycles with a random tester that injected faults and stressed corner cases
by exploiting false sharing and reordering messages."

This generator maximises contention: every CPU hammers a tiny shared block
set with a high store fraction and near-zero gaps, so ownership ping-pongs
constantly and every protocol race window gets exercised.  The stress
tests combine it with fault injection.
"""

from __future__ import annotations

from array import array
from typing import Tuple

from repro.workloads.base import (
    MemOp, OP_GAP_SHIFT, OP_STORE_BIT, chain_hashes, gap_table, mix64,
)


class RandomTester:
    """Uniform random traffic over a tiny, fully shared block set.

    Same stream interface as :class:`~repro.workloads.base.SyntheticWorkload`,
    with one mix per op.
    """

    BLOCK_SHIFT = 6

    def __init__(self, num_cpus: int = 16, seed: int = 1, *,
                 blocks: int = 48, store_frac: float = 0.5,
                 mean_gap: int = 1) -> None:
        if blocks < 1:
            raise ValueError("need at least one block")
        self.num_cpus = num_cpus
        self.seed = mix64(seed)
        self.blocks = blocks
        self.total_blocks = blocks
        self._t_store = int(store_frac * 65536)
        self._gap_mod = 2 * mean_gap + 1
        self._gap_of = gap_table(self._gap_mod)
        self.spec = type("Spec", (), {"name": "random_tester"})()

    def op(self, cpu: int, index: int) -> MemOp:
        """The op at position ``index``: the reference for :meth:`ops_from`."""
        h = mix64(self.seed ^ ((cpu << 40) + index))
        return MemOp((h & 0xFF) % self._gap_mod,
                     ((h >> 8) & 0xFFFF) < self._t_store,
                     ((h >> 24) % self.blocks) << self.BLOCK_SHIFT)

    def ops_from(self, cpu: int, position: int,
                 end: int) -> Tuple[array, int]:
        """Packed ops along the chain from ``position``, one window's worth
        (the contract of ``SyntheticWorkload.ops_from``)."""
        offsets, hashes, gaps, next_position = chain_hashes(
            self.seed, self._gap_of, cpu, position, end)
        blocks, t_store, shift = self.blocks, self._t_store, self.BLOCK_SHIFT
        return array("Q", [
            (gaps[i] << OP_GAP_SHIFT) | (((h >> 24) % blocks) << shift)
            | (OP_STORE_BIT if ((h >> 8) & 0xFFFF) < t_store else 0)
            for i, h in zip(offsets, hashes)
        ]), next_position
