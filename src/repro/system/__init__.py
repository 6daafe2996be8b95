"""System assembly: nodes and the W x H torus machine."""

from repro.system.node import IoHooks, Node
from repro.system.machine import Machine, RunResult

__all__ = [
    "Node",
    "IoHooks",
    "Machine",
    "RunResult",
]
