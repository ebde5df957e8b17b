"""Table 4: device-based campaign overview.

Reports per-country successful test counts as <physical SIM> // <eSIM>
for every tool, from an actual campaign run (scaled by default).
"""

from __future__ import annotations

from typing import Dict, Tuple

from repro.cellular import SIMKind
from repro.experiments import common

_TESTS = [
    ("Ookla", "speedtest"),
    ("MTR(Facebook)", "mtr:Facebook"),
    ("MTR(Google)", "mtr:Google"),
    ("MTR(YouTube)", "mtr:YouTube"),
    ("CDN(Cloudflare)", "cdn:Cloudflare"),
    ("CDN(Google)", "cdn:Google CDN"),
    ("CDN(jQuery)", "cdn:jQuery"),
    ("CDN(jsDelivr)", "cdn:jsDelivr"),
    ("CDN(MS Ajax)", "cdn:Microsoft Ajax"),
    ("Video", "video"),
]


def _count(dataset, country: str) -> Dict[str, Tuple[int, int]]:
    """Successful (physical SIM, eSIM) counts per test for one country.

    Each cell is two position-list intersections on the dataset index;
    ``tests/measure/test_query.py`` holds it to the naive per-country
    full scans it replaced, in counts and in speed.
    """
    counts: Dict[str, Tuple[int, int]] = {}

    def pair(query) -> Tuple[int, int]:
        return (
            query.where(sim_kind=SIMKind.PHYSICAL).count(),
            query.where(sim_kind=SIMKind.ESIM).count(),
        )

    counts["speedtest"] = pair(dataset.select("speedtest").where(country=country))
    mtr = dataset.select("traceroute").where(country=country)
    for target in ("Facebook", "Google", "YouTube"):
        counts[f"mtr:{target}"] = pair(mtr.where(target=target))
    cdn = dataset.select("cdn").where(country=country)
    for provider in ("Cloudflare", "Google CDN", "jQuery", "jsDelivr", "Microsoft Ajax"):
        counts[f"cdn:{provider}"] = pair(cdn.where(provider=provider))
    counts["video"] = pair(dataset.select("video").where(country=country))
    return counts


def run(scale: float = common.DEFAULT_SCALE, seed: int = common.DEFAULT_SEED) -> Dict:
    dataset = common.get_device_dataset(scale, seed)
    rows = {}
    for country in dataset.countries():
        rows[country] = _count(dataset, country)
    return {"rows": rows, "scale": scale}


def format_result(result: Dict) -> str:
    header = f"{'Country':8}" + "".join(f"{label:>17}" for label, _ in _TESTS)
    lines = [f"(scale={result['scale']}) counts are <SIM> // <eSIM>", header]
    for country, counts in sorted(result["rows"].items()):
        cells = []
        for _, key in _TESTS:
            sim, esim = counts.get(key, (0, 0))
            cells.append(f"{sim:>7} // {esim:<5}")
        lines.append(f"{country:8}" + "".join(f"{c:>17}" for c in cells))
    return "\n".join(lines)
