"""Campaign economics: what a like actually cost.

The paper's introduction motivates like fraud with the market value of a
like (estimates from $3.60 to $214.81) against farm prices as low as $15
per thousand.  This module computes the realised cost per like for each
campaign — and, using the enforcement follow-up, the cost per like that
*survived* the platform's purge, which is the number a buyer should care
about.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.honeypot.storage import HoneypotDataset
from repro.util.tables import render_table


@dataclass(frozen=True)
class CampaignEconomics:
    """Realised economics of one campaign."""

    campaign_id: str
    provider: str
    total_cost: float
    likes: int
    removed_likes: int
    inactive: bool

    @property
    def retained_likes(self) -> int:
        """Likes still on the page after the enforcement sweep."""
        return max(0, self.likes - self.removed_likes)

    @property
    def cost_per_like(self) -> Optional[float]:
        """Dollars per delivered like (None when nothing was delivered)."""
        if self.likes == 0:
            return None
        return self.total_cost / self.likes

    @property
    def cost_per_retained_like(self) -> Optional[float]:
        """Dollars per like that survived enforcement."""
        if self.retained_likes == 0:
            return None
        return self.total_cost / self.retained_likes


def campaign_economics(dataset: HoneypotDataset) -> List[CampaignEconomics]:
    """Economics rows for every campaign, in Table 1 order."""
    rows: List[CampaignEconomics] = []
    for campaign_id in dataset.campaign_ids():
        record = dataset.campaign(campaign_id)
        rows.append(
            CampaignEconomics(
                campaign_id=campaign_id,
                provider=record.provider,
                total_cost=record.total_cost,
                likes=record.total_likes,
                removed_likes=record.removed_like_count,
                inactive=record.inactive,
            )
        )
    return rows


def render_economics(dataset: HoneypotDataset) -> str:
    """Text table of per-campaign costs (burned money included)."""
    rows = []
    for econ in campaign_economics(dataset):
        rows.append([
            econ.campaign_id,
            f"${econ.total_cost:.2f}",
            "-" if econ.inactive else econ.likes,
            econ.removed_likes,
            "-" if econ.cost_per_like is None else f"${econ.cost_per_like:.3f}",
            "-" if econ.cost_per_retained_like is None
            else f"${econ.cost_per_retained_like:.3f}",
        ])
    return render_table(
        ["Campaign", "Cost", "Likes", "Removed", "$/like", "$/retained like"],
        rows,
        title="Campaign economics",
    )
