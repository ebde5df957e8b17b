"""Figure 15: YouTube playback resolution per country and configuration."""

from __future__ import annotations

from typing import Dict, Tuple

from repro.experiments import common


def run(scale: float = common.DEFAULT_SCALE, seed: int = common.DEFAULT_SEED) -> Dict:
    dataset = common.get_device_dataset(scale, seed)
    distributions: Dict[Tuple[str, str], Dict[str, float]] = {}
    groups = dataset.select("video").group_by("country", "config")
    for key, records in groups.items():
        bucket = distributions.setdefault(key, {})
        for record in records:
            for label, count in record.resolution_counts.items():
                bucket[label] = bucket.get(label, 0) + count
    # Normalise to shares.
    for bucket in distributions.values():
        total = sum(bucket.values())
        for label in bucket:
            bucket[label] = bucket[label] / total

    share_1080 = {
        key: sum(v for label, v in bucket.items() if int(label.rstrip("p")) >= 1080)
        for key, bucket in distributions.items()
    }
    return {
        "distributions": dict(sorted(distributions.items())),
        "share_1080p_or_better": dict(sorted(share_1080.items())),
    }


def format_result(result: Dict) -> str:
    lines = [f"{'Country':8} {'Config':10} resolution shares"]
    for (country, config), bucket in result["distributions"].items():
        ordered = sorted(bucket.items(), key=lambda kv: int(kv[0].rstrip("p")))
        shares = "  ".join(f"{label}:{share:.0%}" for label, share in ordered)
        lines.append(f"{country:8} {config:10} {shares}")
    lines.append("share of segments at >=1080p:")
    for (country, config), share in result["share_1080p_or_better"].items():
        lines.append(f"  {country:8} {config:10} {share:.0%}")
    return "\n".join(lines)
