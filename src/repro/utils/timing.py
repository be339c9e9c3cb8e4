"""Lightweight wall-clock timing: a context-manager stopwatch.

The program carries no phase tracer.  The per-layer split of a ``fit`` or
a served request comes from the benchmark suite's outside tracer
(``python3 benchmarks/suite/run.py --workload W --seed 1 --trace 1``).
"""

from __future__ import annotations

import time
from typing import List


class Timer:
    """Context-manager stopwatch accumulating laps.

    >>> timer = Timer()
    >>> with timer:
    ...     _ = sum(range(1000))
    >>> timer.total >= 0.0
    True
    """

    def __init__(self) -> None:
        self.laps: List[float] = []
        self._start: float | None = None

    def __enter__(self) -> "Timer":
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc_info) -> None:
        if self._start is None:
            raise RuntimeError("Timer exited without entering")
        self.laps.append(time.perf_counter() - self._start)
        self._start = None

    @property
    def total(self) -> float:
        """Sum of all laps in seconds."""
        return sum(self.laps)

    @property
    def mean(self) -> float:
        """Mean lap length in seconds (0 when no laps recorded)."""
        return self.total / len(self.laps) if self.laps else 0.0
