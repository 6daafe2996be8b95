"""Error-detection code models.

A code is characterised by the fraction of corruption events it detects
(coverage), the cycles it takes to check a message (stronger codes are
longer and slower — the property SafetyNet exploits, paper §5.1), and its
per-message byte overhead.

Coverage figures are stylised but ordered correctly: parity misses any
even number of bit flips; SECDED detects double errors; CRCs detect all
burst errors up to their width and miss random corruption with
probability ~2^-n.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.workloads.base import mix64


@dataclass(frozen=True)
class ErrorCode:
    """An error-detection code's figures of merit."""

    name: str
    coverage: float          # probability a corruption event is detected
    check_latency: int       # cycles from arrival to verdict
    overhead_bytes: int      # added to every message

    def __post_init__(self) -> None:
        if not 0.0 <= self.coverage <= 1.0:
            raise ValueError("coverage must be a probability")
        if self.check_latency < 0:
            raise ValueError("check latency cannot be negative")

    def detects(self, msg_id: int) -> bool:
        """Deterministic per-message detection draw (reproducible runs)."""
        if self.coverage >= 1.0:
            return True
        if self.coverage <= 0.0:
            return False
        draw = mix64(msg_id * 0x9E37) % (1 << 30)
        return draw < int(self.coverage * (1 << 30))


# The ordering mirrors the paper's discussion: current systems use short
# codes (parity, SECDED, short CRCs) because they must check before
# forwarding; SafetyNet's latency tolerance permits long CRCs.
PARITY = ErrorCode("parity", coverage=0.50, check_latency=1, overhead_bytes=1)
SECDED = ErrorCode("secded", coverage=0.90, check_latency=2, overhead_bytes=1)
CRC8 = ErrorCode("crc8", coverage=0.996, check_latency=4, overhead_bytes=1)
CRC16 = ErrorCode("crc16", coverage=0.9999, check_latency=12, overhead_bytes=2)
CRC32 = ErrorCode("crc32", coverage=1.0 - 2.0**-32, check_latency=40,
                  overhead_bytes=4)
