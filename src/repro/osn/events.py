"""Timestamped like events.

The temporal analysis (paper Figure 2) and the burst-based detection rules
need *when* each like landed, not just the final liker set, so the network
records every like as an immutable event in arrival order.

Storage is columnar: the log is three parallel growable NumPy columns —
``user_id``, ``page_id``, ``time`` — appended in arrival order, plus two
lazily compiled :class:`repro.osn.columns.ColumnIndex` inverted indexes
(per page and per user).  "All events for page p" is one stable-sorted
slice; events appended after an index compiles land in a tail the index
scans vectorised.  :class:`LikeEvent` objects are materialised only on
read.  Events arrive two ways: one at a time from the event loop
(:meth:`LikeLog.record`), and a whole cohort at once from the world
build (:meth:`LikeLog.record_arrays`, ~1.2M events at paper scale),
which validates once per batch instead of once per event.

Removals are kept as a side list of :class:`LikeRemovalEvent` records
tagged with the like-event count at removal time (their *sequence
position*), plus counting dicts per page, per user, and per (page, user)
pair — enough to answer "does u currently like p" and to replay a page's
current liker list exactly as the old list-of-likers implementation did,
without ever storing a mutable per-page list.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.osn.columns import ColumnIndex, TypedVector
from repro.osn.ids import PageId, UserId
from repro.util.validation import ValidationError, require


@dataclass(frozen=True, slots=True)
class LikeEvent:
    """A user liking a page at a simulated time."""

    user_id: UserId
    page_id: PageId
    time: int

    def __post_init__(self) -> None:
        require(self.time >= 0, "like time must be >= 0")


@dataclass(frozen=True, slots=True)
class LikeRemovalEvent:
    """A like disappearing from a page (platform purge or user unlike).

    The paper's future work calls for "longer observation of removed
    likes"; removals happen when enforcement terminates an account and
    purges its engagement.
    """

    user_id: UserId
    page_id: PageId
    time: int

    def __post_init__(self) -> None:
        require(self.time >= 0, "removal time must be >= 0")


class LikeLog:
    """Append-only columnar log of like events with lazy per-page and
    per-user indexes.

    Events for a given page are guaranteed to be in non-decreasing time
    order because the event engine delivers them chronologically; the log
    enforces this invariant defensively.
    """

    def __init__(self) -> None:
        self._users = TypedVector(np.int64)
        self._pages = TypedVector(np.int64)
        self._times = TypedVector(np.int64)
        self._page_index = ColumnIndex()
        self._user_index = ColumnIndex()
        self._max_time = -1
        self._removals: List[LikeRemovalEvent] = []
        self._removal_seqs: List[int] = []
        self._removal_pair_counts: Dict[Tuple[int, int], int] = {}
        self._user_removal_counts: Dict[int, int] = {}
        self._page_removal_counts: Dict[int, int] = {}
        self._count = 0

    def __len__(self) -> int:
        return self._count

    def reserve(self, extra: int) -> None:
        """Presize the event columns for ``extra`` upcoming events."""
        self._users.reserve(extra)
        self._pages.reserve(extra)
        self._times.reserve(extra)

    def record(self, event: LikeEvent) -> None:
        """Append ``event``; rejects out-of-order times for the same page."""
        time = event.time
        if time < self._max_time:
            last = self.page_last_time(event.page_id)
            if last is not None and time < last:
                raise ValidationError(
                    "like events for a page must arrive in chronological order"
                )
        self._users.append(event.user_id)
        self._pages.append(event.page_id)
        self._times.append(time)
        self._count += 1
        if time > self._max_time:
            self._max_time = time

    def record_arrays(
        self, user_ids: np.ndarray, page_ids: np.ndarray, time: int
    ) -> None:
        """Append aligned ``(user, page)`` event columns, all at ``time``.

        The cohort-wide fast path: one call lands every like a generator
        batch produced, as one column append.  Validation matches
        :meth:`record` (non-negative time, chronological order per page)
        and runs before any column is touched, so a rejected batch
        leaves the log unchanged.
        """
        k = page_ids.shape[0]
        if k == 0:
            return
        require(time >= 0, "like time must be >= 0")
        if time < self._max_time:
            # vectorised per-page chronology check: newest existing event
            # per batch page, compared against the batch timestamp
            last_rows = self._page_index.last_positions(
                page_ids, self._pages.values()
            )
            seen = last_rows >= 0
            if bool(np.any(self._times.values()[last_rows[seen]] > time)):
                raise ValidationError(
                    "like events for a page must arrive in chronological order"
                )
        self._pages.extend(page_ids)
        self._users.extend(user_ids)
        self._times.extend_full(k, time)
        self._count += k
        if time > self._max_time:
            self._max_time = time

    # -- columnar reads ------------------------------------------------------

    def page_event_positions(self, page_id: PageId) -> np.ndarray:
        """Global event positions for ``page_id``, in arrival order."""
        return self._page_index.positions(int(page_id), self._pages.values())

    def user_event_positions(self, user_id: UserId) -> np.ndarray:
        """Global event positions for ``user_id``, in arrival order."""
        return self._user_index.positions(int(user_id), self._users.values())

    def page_user_ids_array(self, page_id: PageId) -> np.ndarray:
        """User-id column slice of ``page_id``'s events, arrival order."""
        return self._users.values()[self.page_event_positions(page_id)]

    def user_page_ids_array(self, user_id: UserId) -> np.ndarray:
        """Page-id column slice of ``user_id``'s events, arrival order."""
        return self._pages.values()[self.user_event_positions(user_id)]

    def page_event_count(self, page_id: PageId) -> int:
        """Number of like events ever recorded on ``page_id``."""
        return self._page_index.count(int(page_id), self._pages.values())

    def user_event_count(self, user_id: UserId) -> int:
        """Number of like events ever recorded by ``user_id``."""
        return self._user_index.count(int(user_id), self._users.values())

    def pair_count(self, page_id: PageId, user_id: UserId) -> int:
        """How many times ``user_id`` has liked ``page_id`` (re-likes count)."""
        positions = self.page_event_positions(page_id)
        if positions.shape[0] == 0:
            return 0
        return int(
            np.count_nonzero(self._users.values()[positions] == int(user_id))
        )

    def page_last_time(self, page_id: PageId):
        """Time of the newest event on ``page_id``, or ``None`` if none."""
        positions = self.page_event_positions(page_id)
        if positions.shape[0] == 0:
            return None
        # per-page times are non-decreasing, so the newest event is last
        return int(self._times.values()[positions[-1]])

    def for_page(self, page_id: PageId) -> Tuple[LikeEvent, ...]:
        """All like events on ``page_id``, oldest first."""
        positions = self.page_event_positions(page_id)
        users = self._users.values()[positions]
        times = self._times.values()[positions]
        page_id = PageId(int(page_id))
        return tuple(
            LikeEvent(user_id=UserId(int(u)), page_id=page_id, time=int(t))
            for u, t in zip(users, times)
        )

    def for_user(self, user_id: UserId) -> Tuple[LikeEvent, ...]:
        """All like events by ``user_id``, in arrival order."""
        positions = self.user_event_positions(user_id)
        pages = self._pages.values()[positions]
        times = self._times.values()[positions]
        user_id = UserId(int(user_id))
        return tuple(
            LikeEvent(user_id=user_id, page_id=PageId(int(p)), time=int(t))
            for p, t in zip(pages, times)
        )

    def page_like_times(self, page_id: PageId) -> List[int]:
        """Just the timestamps of likes on ``page_id`` (for time-series work)."""
        positions = self.page_event_positions(page_id)
        return self._times.values()[positions].tolist()

    # -- removals ------------------------------------------------------------

    def record_removal(self, event: LikeRemovalEvent) -> None:
        """Append a like-removal event (historical likes stay in the log)."""
        self._removals.append(event)
        self._removal_seqs.append(self._count)
        pair = (int(event.page_id), int(event.user_id))
        self._removal_pair_counts[pair] = self._removal_pair_counts.get(pair, 0) + 1
        self._user_removal_counts[int(event.user_id)] = (
            self._user_removal_counts.get(int(event.user_id), 0) + 1
        )
        self._page_removal_counts[int(event.page_id)] = (
            self._page_removal_counts.get(int(event.page_id), 0) + 1
        )

    def record_removals(
        self, user_id: UserId, page_ids: Sequence[PageId], time: int
    ) -> None:
        """Record one removal per page for ``user_id``, all at ``time``.

        The batch twin of :meth:`record_removal` for account purges:
        produces exactly the same removal records (same order, same
        sequence positions — no like events land in between) with one
        pass over the counter dicts.
        """
        uid = int(user_id)
        k = 0
        seq = self._count
        pair_counts = self._removal_pair_counts
        page_counts = self._page_removal_counts
        for page_id in page_ids:
            self._removals.append(
                LikeRemovalEvent(user_id=user_id, page_id=page_id, time=time)
            )
            self._removal_seqs.append(seq)
            pid = int(page_id)
            pair_counts[(pid, uid)] = pair_counts.get((pid, uid), 0) + 1
            page_counts[pid] = page_counts.get(pid, 0) + 1
            k += 1
        if k:
            self._user_removal_counts[uid] = (
                self._user_removal_counts.get(uid, 0) + k
            )

    def removals_for_page(self, page_id: PageId) -> List[LikeRemovalEvent]:
        """All removal events affecting ``page_id``, in arrival order."""
        return [event for event in self._removals if event.page_id == page_id]

    def removals_for_user(self, user_id: UserId) -> List[LikeRemovalEvent]:
        """All removal events affecting ``user_id``'s likes, in arrival order."""
        return [event for event in self._removals if event.user_id == user_id]

    def removal_records_for_page(
        self, page_id: PageId
    ) -> List[Tuple[int, LikeRemovalEvent]]:
        """``(sequence, event)`` pairs for ``page_id``'s removals.

        The sequence is the number of like events recorded when the
        removal landed — enough to interleave removals with the event
        columns when replaying a page's current liker list.
        """
        return [
            (seq, event)
            for seq, event in zip(self._removal_seqs, self._removals)
            if event.page_id == page_id
        ]

    def removal_pair_count(self, page_id: PageId, user_id: UserId) -> int:
        """How many times a like of ``page_id`` by ``user_id`` was removed."""
        return self._removal_pair_counts.get((int(page_id), int(user_id)), 0)

    def user_removal_count(self, user_id: UserId) -> int:
        """Total removals of likes made by ``user_id``."""
        return self._user_removal_counts.get(int(user_id), 0)

    def page_removal_count(self, page_id: PageId) -> int:
        """Total removals of likes on ``page_id``."""
        return self._page_removal_counts.get(int(page_id), 0)

    @property
    def removal_count(self) -> int:
        """Total like removals recorded."""
        return len(self._removals)
