"""Figure 6: median unique ASNs in traceroutes to Google and Facebook."""

from __future__ import annotations

from typing import Dict

from repro.analysis.paths import unique_asn_medians
from repro.experiments import common


def run(scale: float = common.DEFAULT_SCALE, seed: int = common.DEFAULT_SEED) -> Dict:
    dataset = common.get_device_dataset(scale, seed)
    result: Dict = {}
    sp_only: Dict = {}
    for target in ("Google", "Facebook"):
        query = dataset.select("traceroute").where(target=target)
        result[target] = unique_asn_medians(query.records())
        # Runs revealing only the SP's ASN: the CG-NAT stayed silent.
        totals = query.count_by("country", "config")
        only = query.filter(lambda r: len(r.unique_asns) <= 1).count_by(
            "country", "config"
        )
        sp_only[target] = {
            key: only.get(key, 0) / total for key, total in totals.items() if total
        }
    result["sp_asn_only_share"] = sp_only
    return result


def format_result(result: Dict) -> str:
    lines = []
    for target, medians in result.items():
        if target == "sp_asn_only_share":
            continue
        lines.append(f"-- {target} --")
        lines.append(f"{'Country':8} {'SIM':>5} {'eSIM':>6}")
        countries = sorted({country for country, _ in medians})
        for country in countries:
            sim = medians.get((country, "SIM"), float("nan"))
            esim = medians.get((country, "eSIM"), float("nan"))
            lines.append(f"{country:8} {sim:>5.1f} {esim:>6.1f}")
    hidden = result.get("sp_asn_only_share", {}).get("Facebook", {})
    notable = {k: v for k, v in sorted(hidden.items()) if v > 0.25}
    if notable:
        lines.append("Facebook runs revealing only the SP ASN (silent CG-NAT):")
        for (country, config), share in notable.items():
            lines.append(f"  {country} {config}: {share:.0%}")
    return "\n".join(lines)
