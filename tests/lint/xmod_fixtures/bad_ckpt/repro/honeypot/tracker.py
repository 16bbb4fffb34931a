"""Seeded regressions: a state_dict that misses one mutable attribute,
and barrier-reachable mutable state with no state_dict at all."""

from typing import List


class Tracker:
    """Mutable study-phase state with an incomplete snapshot."""

    def __init__(self) -> None:
        self.items: List[int] = []
        self.count = 0

    def bump(self, value: int) -> None:
        self.items.append(value)
        self.count += 1

    def state_dict(self) -> dict:
        # BUG under test: ``count`` is mutated across barriers but never
        # snapshotted, so a replay that forks it passes every barrier.
        return {"items": list(self.items)}


class Ledger:
    """Barrier-reachable mutable state that reports none of it."""

    def __init__(self) -> None:
        self.entries: List[int] = []

    def record(self, value: int) -> None:
        self.entries.append(value)
