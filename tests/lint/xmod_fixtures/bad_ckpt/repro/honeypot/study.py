"""Anchor module: the phase-barrier component bundle for the fixture."""

from dataclasses import dataclass

from repro.honeypot.tracker import Ledger, Tracker


@dataclass
class _StudyComponents:
    """What the fixture study carries across its phase barriers."""

    tracker: Tracker
    ledger: Ledger
