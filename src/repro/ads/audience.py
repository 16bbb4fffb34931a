"""Audience estimation — the ads manager's "potential reach" feature.

The 2014 ads manager showed advertisers an estimated audience size for any
targeting spec; the paper's own baseline methodology (reference [9], Chen
et al., PETS 2013) leveraged exactly these estimates.  Two estimators:

* :class:`NetworkAudienceEstimator` counts matching live profiles in the
  simulated network and scales by a world-to-platform factor.
* :func:`market_audience_weights` derives relative reach directly from the
  cost model's inventory weights (what the pacing optimiser actually uses).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from repro.ads.costmodel import CostModel
from repro.ads.targeting import TargetingSpec
from repro.osn.network import SocialNetwork
from repro.util.validation import check_positive

#: Facebook's population around the study (1.23B MAU, early 2014); the
#: default scale maps a simulated world onto it.
PLATFORM_POPULATION_2014 = 1_230_000_000


@dataclass(frozen=True)
class AudienceEstimate:
    """A potential-reach estimate for one targeting spec."""

    targeting: TargetingSpec
    matched_profiles: int
    estimated_reach: int


class NetworkAudienceEstimator:
    """Estimates reach by counting matching profiles in the world.

    Only searchable, live accounts count — the same frame as the public
    directory — so fraud pools do not inflate advertiser-facing estimates.
    """

    def __init__(self, network: SocialNetwork, platform_population: int = PLATFORM_POPULATION_2014) -> None:
        check_positive(platform_population, "platform_population")
        self._network = network
        self._platform_population = platform_population

    def estimate(self, targeting: TargetingSpec) -> AudienceEstimate:
        """Potential reach for ``targeting``."""
        eligible = [
            profile
            for profile in self._network.all_users()
            if profile.searchable and not profile.is_terminated
        ]
        matched = sum(1 for profile in eligible if targeting.matches(profile))
        if not eligible:
            reach = 0
        else:
            reach = int(round(matched / len(eligible) * self._platform_population))
        return AudienceEstimate(
            targeting=targeting, matched_profiles=matched, estimated_reach=reach
        )


def market_audience_weights(
    cost_model: CostModel, targeting: TargetingSpec
) -> Dict[str, float]:
    """Relative audience share per eligible market, normalised to 1.

    This is the inventory view the delivery optimiser weights by — useful
    for sanity-checking why a worldwide campaign lands where it does.
    """
    eligible = cost_model.eligible_markets(targeting)
    total = sum(market.audience_weight for market in eligible)
    return {
        market.country: market.audience_weight / total for market in eligible
    }
