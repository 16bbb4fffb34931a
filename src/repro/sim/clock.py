"""The simulation clock.

Time is an integer count of minutes since the study epoch (see
:mod:`repro.util.timeutil`).  The clock only moves forward; the event engine
is the sole writer in a running experiment.
"""

from __future__ import annotations

from repro.util.timeutil import format_time
from repro.util.validation import require


class SimClock:
    """Monotonic simulated clock.

    >>> clock = SimClock()
    >>> clock.now
    0
    >>> clock.advance_to(120)
    >>> clock.now
    120
    """

    def __init__(self, start: int = 0) -> None:
        require(start >= 0, "start time must be >= 0")
        self._now = start

    @property
    def now(self) -> int:
        """Current simulated time in minutes since the epoch."""
        return self._now

    def advance_to(self, time: int) -> None:
        """Move the clock forward to ``time``.

        Raises if ``time`` is in the past: the simulation never rewinds.
        """
        require(
            time >= self._now,
            f"clock cannot move backwards ({format_time(self._now)} -> {time})",
        )
        self._now = time

    # -- checkpoint support -------------------------------------------------------

    def state_dict(self) -> dict:
        """The clock's state (its current minute) as plain types."""
        return {"now": self._now}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SimClock({format_time(self._now)})"
