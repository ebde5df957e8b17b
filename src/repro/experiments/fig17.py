"""Figure 17: CDF of median $/GB per country for notable providers, plus
the local-physical-SIM survey line."""

from __future__ import annotations

import statistics
from typing import Dict

from repro.analysis.stats import empirical_cdf
from repro.experiments import common
from repro.market import DEFAULT_LOCAL_OFFERS, LocalSIMSurvey

PROVIDERS = ("Airhub", "MobiMatter", "Airalo", "Keepgo")


def run() -> Dict:
    listing = common.get_listing(common.SNAPSHOT_DAY)
    medians = listing.provider_country_medians(common.SNAPSHOT_DAY)
    counts = listing.offer_counts(common.SNAPSHOT_DAY)
    total = sum(counts.values())

    result: Dict = {"providers": {}}
    for provider in PROVIDERS:
        values = medians.get(provider, [])
        result["providers"][provider] = {
            "cdf": empirical_cdf(values),
            "median": statistics.median(values),
            "countries": len(values),
            "offer_share": counts.get(provider, 0) / total,
        }
    survey = LocalSIMSurvey(DEFAULT_LOCAL_OFFERS)
    result["local_sim"] = {
        "cdf": empirical_cdf(survey.usd_per_gb_values()),
        "median": survey.median_usd_per_gb(),
    }
    result["total_offers"] = total
    return result


def format_result(result: Dict) -> str:
    lines = [f"aggregator lists {result['total_offers']} offers on snapshot day"]
    for provider, data in result["providers"].items():
        lines.append(
            f"{provider:12} median ${data['median']:5.2f}/GB over "
            f"{data['countries']} countries ({data['offer_share']:.1%} of offers)"
        )
    lines.append(
        f"{'local SIM':12} median ${result['local_sim']['median']:5.2f}/GB (dashed line)"
    )
    return "\n".join(lines)
