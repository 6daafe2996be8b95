"""Shared test helpers: small machines, a direct-drive harness, and a
kernel fixture covering both dispatch loops."""

from __future__ import annotations

from typing import Optional

import pytest

from repro.config import SystemConfig
from repro.sim.kernel import Simulator
from repro.sim.profile import DispatchProfile
from repro.system.machine import Machine
from repro.workloads import RandomTester, apache


def tiny_machine(
    *,
    safetynet: bool = True,
    workload=None,
    seed: int = 1,
    **config_overrides,
) -> Machine:
    """A 2x2 machine with a quiet default workload, cores not started."""
    cfg = SystemConfig.tiny(safetynet_enabled=safetynet, **config_overrides)
    if workload is None:
        workload = apache(num_cpus=4, scale=64, seed=seed)
    return Machine(cfg, workload, seed=seed)


class Driver:
    """Drives cache controllers directly (no cores) for protocol tests."""

    def __init__(self, machine: Machine) -> None:
        self.machine = machine
        self.sim = machine.sim

    def start_safetynet(self) -> None:
        """Start the clock/validation machinery without running cores."""
        if self.machine.config.safetynet_enabled:
            self.machine.clock.start()
            for node in self.machine.nodes:
                node.validation.start()

    def access(self, node: int, addr: int, is_store: bool,
               value: Optional[int] = None, timeout: int = 100_000) -> None:
        """Issue one CPU access on ``node`` and run until it completes."""
        cache = self.machine.nodes[node].cache
        if value is None:
            value = (node << 16) | (addr & 0xFFFF)
        status, _ = cache.fast_access(addr, is_store, value)
        if status == "hit":
            self.sim.run(limit=self.sim.now + 1)
            return
        if status == "throttle":
            raise AssertionError("unexpected CLB throttle in directed test")
        done = []
        cache.start_miss(addr, is_store, value if is_store else None,
                         lambda: done.append(True))
        deadline = self.sim.now + timeout
        while not done and self.sim.now < deadline and self.sim.pending():
            self.sim.step()
        assert done, f"access node{node} {addr:#x} never completed"

    def settle(self, cycles: int = 5_000) -> None:
        """Let in-flight traffic (acks, writebacks) finish."""
        self.sim.run(limit=self.sim.now + cycles)

    def run_until(self, predicate, timeout: int = 500_000) -> None:
        deadline = self.sim.now + timeout
        while not predicate() and self.sim.now < deadline and self.sim.pending():
            self.sim.step()
        assert predicate(), "condition never became true"


@pytest.fixture
def driver() -> Driver:
    return Driver(tiny_machine())


@pytest.fixture
def driver_no_sn() -> Driver:
    return Driver(tiny_machine(safetynet=False))


def _traced_simulator() -> Simulator:
    sim = Simulator()
    sim.tracer = DispatchProfile()
    return sim


@pytest.fixture(params=[Simulator, _traced_simulator], ids=["heap", "traced"])
def sim(request) -> Simulator:
    """A fresh kernel, plain and with a DispatchProfile attached: the
    tracer switches :meth:`Simulator.run` to its separate traced loop,
    which must keep every semantic of the plain one."""
    return request.param()
