"""Discrete-event simulation substrate.

The kernel advances an integer cycle clock and dispatches events in
deterministic order.  Everything above it (network, coherence, SafetyNet)
schedules work through :class:`~repro.sim.kernel.Simulator`.
"""
