"""Discrete-event simulation substrate.

The kernel advances an integer cycle clock and dispatches events in
deterministic order.  Everything above it (network, coherence, SafetyNet)
schedules work through :class:`~repro.sim.kernel.Simulator`.
"""

from repro.sim.deadlines import DeadlineTable
from repro.sim.kernel import Simulator
from repro.sim.profile import DispatchProfile, ProfileReport, profile_spec
from repro.sim.rng import DeterministicRng, spawn_streams
from repro.sim.stats import BandwidthMeter, Counter, Histogram, StatsRegistry

__all__ = [
    "Simulator",
    "DeadlineTable",
    "DispatchProfile",
    "ProfileReport",
    "profile_spec",
    "DeterministicRng",
    "spawn_streams",
    "BandwidthMeter",
    "Counter",
    "Histogram",
    "StatsRegistry",
]
