"""Figure 11: RTT to Facebook/Google (final traceroute hop) and latency
to the nearest Ookla server, per country and configuration."""

from __future__ import annotations

from typing import Dict, Tuple

from repro.analysis.stats import boxplot_summary, welch_ttest, levene_test
from repro.cellular import SIMKind
from repro.experiments import common


def run(scale: float = common.DEFAULT_SCALE, seed: int = common.DEFAULT_SEED) -> Dict:
    dataset = common.get_device_dataset(scale, seed)

    panels: Dict[str, Dict[Tuple[str, str], object]] = {}
    for target in ("Facebook", "Google"):
        groups = (
            dataset.select("traceroute")
            .where(target=target)
            .filter(lambda r: r.final_rtt_ms is not None)
            .group_by("country", "config")
        )
        panels[target] = {
            key: boxplot_summary([r.final_rtt_ms for r in records])
            for key, records in groups.items()
        }

    speedtests = dataset.select("speedtest")
    panels["Ookla"] = {
        key: boxplot_summary([r.latency_ms for r in records])
        for key, records in speedtests.group_by("country", "config").items()
    }

    # The statistical tests of Section 5.1.
    roaming_sim, roaming_esim = [], []
    native_sim, native_esim = [], []
    all_sim, all_esim = [], []
    for record in speedtests:
        ctx = record.context
        is_esim = ctx.sim_kind is SIMKind.ESIM
        native_country = ctx.country_iso3 in ("KOR", "THA")
        (all_esim if is_esim else all_sim).append(record.latency_ms)
        if native_country:
            (native_esim if is_esim else native_sim).append(record.latency_ms)
        else:
            (roaming_esim if is_esim else roaming_sim).append(record.latency_ms)

    _, p_roaming = welch_ttest(roaming_sim, roaming_esim)
    _, p_native = welch_ttest(native_sim, native_esim)
    _, p_levene = levene_test(all_sim, all_esim)
    return {
        "panels": panels,
        "ttest_roaming_p": p_roaming,
        "ttest_native_p": p_native,
        "levene_p": p_levene,
    }


def format_result(result: Dict) -> str:
    from repro.analysis.asciiplot import ascii_boxplot

    lines = []
    for target, series in result["panels"].items():
        lines.append(f"-- RTT/latency to {target} (ms) --")
        lines.append(f"{'Country':8} {'Config':10} {'q1':>7} {'med':>7} {'q3':>7}")
        for (country, config), summary in series.items():
            lines.append(
                f"{country:8} {config:10} {summary.q1:>7.1f} "
                f"{summary.median:>7.1f} {summary.q3:>7.1f}"
            )
    lines.append(
        f"t-test roaming countries p={result['ttest_roaming_p']:.2e} "
        f"(paper 7.65e-5, significant)"
    )
    lines.append(
        f"t-test native countries p={result['ttest_native_p']:.3f} "
        f"(paper 0.152, not significant)"
    )
    lines.append(f"Levene p={result['levene_p']:.3f} (paper 0.025, heteroscedastic)")
    ookla = result["panels"]["Ookla"]
    if ookla:
        lines.append("Ookla latency boxplots (ms):")
        lines.append(
            ascii_boxplot({f"{c} {cfg}": s for (c, cfg), s in ookla.items()})
        )
    return "\n".join(lines)
