"""Statistics collection for the simulator.

Components register named counters/histograms in a :class:`StatsRegistry`.
The benchmark harness reads these to regenerate the paper's tables and
figures (e.g. Fig. 6 needs "stores that use the CLB per 1000 instructions";
Fig. 7 needs a cache-bandwidth breakdown).
"""

from __future__ import annotations

import math
from collections import defaultdict
from typing import Dict, Iterable, List, Tuple


class Counter:
    """A monotonically increasing event counter."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0

    def add(self, amount: int = 1) -> None:
        self.value += amount

    def reset(self) -> None:
        self.value = 0

    def __repr__(self) -> str:
        return f"Counter({self.name}={self.value})"


class Histogram:
    """A sample accumulator; every aggregate is computed on read.

    Histograms hold one sample per recovery and are read only by reports,
    so nothing is maintained incrementally.  ``total`` sums in recording
    order, so ``mean`` is the same float however often it is read.
    """

    __slots__ = ("name", "_samples")

    def __init__(self, name: str) -> None:
        self.name = name
        self._samples: List[float] = []

    def record(self, value: float) -> None:
        self._samples.append(value)

    @property
    def count(self) -> int:
        return len(self._samples)

    @property
    def total(self) -> float:
        return sum(self._samples)

    @property
    def mean(self) -> float:
        return self.total / len(self._samples) if self._samples else 0.0

    def reset(self) -> None:
        self._samples.clear()


class BandwidthMeter:
    """Byte accounting split by traffic class.

    Fig. 7 decomposes cache data-array bandwidth into hits, fills,
    coherence responses, and logging reads; this meter generalises that.
    """

    def __init__(self, name: str) -> None:
        self.name = name
        self._bytes: Dict[str, int] = defaultdict(int)

    def add(self, kind: str, nbytes: int) -> None:
        self._bytes[kind] += nbytes

    def total(self) -> int:
        return sum(self._bytes.values())

    def by_kind(self) -> Dict[str, int]:
        return dict(self._bytes)

    def fraction(self, kind: str) -> float:
        total = self.total()
        return self._bytes.get(kind, 0) / total if total else 0.0

    def reset(self) -> None:
        self._bytes.clear()


class StatsRegistry:
    """Namespaced registry of counters/histograms/meters.

    Names are dotted paths, e.g. ``node3.cache.stores_logged``.
    """

    def __init__(self) -> None:
        self._counters: Dict[str, Counter] = {}
        self._histograms: Dict[str, Histogram] = {}
        self._meters: Dict[str, BandwidthMeter] = {}

    def counter(self, name: str) -> Counter:
        if name not in self._counters:
            self._counters[name] = Counter(name)
        return self._counters[name]

    def histogram(self, name: str) -> Histogram:
        if name not in self._histograms:
            self._histograms[name] = Histogram(name)
        return self._histograms[name]

    def meter(self, name: str) -> BandwidthMeter:
        if name not in self._meters:
            self._meters[name] = BandwidthMeter(name)
        return self._meters[name]

    # -- aggregation ---------------------------------------------------
    def counters_matching(self, suffix: str) -> Dict[str, int]:
        """All counters whose dotted name ends with ``suffix``."""
        return {
            name: c.value for name, c in self._counters.items() if name.endswith(suffix)
        }

    def sum_counters(self, suffix: str) -> int:
        return sum(self.counters_matching(suffix).values())

    def snapshot(self) -> Dict[str, float]:
        """Flat dict of every counter value and histogram mean."""
        out: Dict[str, float] = {}
        for name, c in self._counters.items():
            out[name] = c.value
        for name, h in self._histograms.items():
            out[f"{name}.mean"] = h.mean
            out[f"{name}.count"] = h.count
        for name, m in self._meters.items():
            for kind, nbytes in m.by_kind().items():
                out[f"{name}.{kind}"] = nbytes
        return out

    def reset(self) -> None:
        for c in self._counters.values():
            c.reset()
        for h in self._histograms.values():
            h.reset()
        for m in self._meters.values():
            m.reset()


def mean_and_stddev(values: Iterable[float]) -> Tuple[float, float]:
    vals = list(values)
    if not vals:
        return 0.0, 0.0
    mu = sum(vals) / len(vals)
    if len(vals) < 2:
        return mu, 0.0
    var = sum((v - mu) ** 2 for v in vals) / (len(vals) - 1)
    return mu, math.sqrt(var)
