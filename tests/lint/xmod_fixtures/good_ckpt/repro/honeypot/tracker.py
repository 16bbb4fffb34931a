"""Proven-safe counterpart: every mutable attribute is a state key."""

from typing import List


class Tracker:
    """Mutable study-phase state with a complete snapshot."""

    def __init__(self) -> None:
        self.items: List[int] = []
        self.count = 0

    def bump(self, value: int) -> None:
        self.items.append(value)
        self.count += 1

    def state_dict(self) -> dict:
        return {"items": list(self.items), "count": self.count}

