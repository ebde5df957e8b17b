"""Figure 16: evolution of Airalo's median $/GB per continent, February
to May 2024, plus the New-Jersey-vantage check."""

from __future__ import annotations

from typing import Dict

from repro.experiments import common


def run() -> Dict:
    _, crawl = common.get_market()
    return {
        "timeline": crawl.price_timeline(common.get_countries(), provider="Airalo"),
        # The late-April Madrid / Abu Dhabi / NJ listings the crawl holds.
        "price_discrimination": crawl.price_discrimination_detected(),
        "days": sorted(crawl.days()),
    }


def format_result(result: Dict) -> str:
    lines = ["median Airalo $/GB per continent over the crawl:"]
    for continent, series in sorted(result["timeline"].items()):
        first = series[0][1]
        last = series[-1][1]
        lines.append(
            f"{continent:14} day {series[0][0]:>3}: ${first:5.2f}  ->  "
            f"day {series[-1][0]:>3}: ${last:5.2f}"
        )
    lines.append(
        f"price discrimination across vantages: {result['price_discrimination']} "
        "(paper: none observed)"
    )
    return "\n".join(lines)
