"""Extension X1: jitter, packet loss and VoIP quality per configuration.

Implements the paper's Future Directions item: "a broader suite of
network performance metrics, specifically including jitter and packet
loss, which are crucial for evaluating real-time services like VoIP".
Probes every device-campaign deployment with an RTP-style train and
scores calls with the ITU-T E-model.
"""

from __future__ import annotations

import random
import statistics
from typing import Dict, List

from repro.cellular import UserEquipment, issue_physical_sim
from repro.cellular.radio import RadioAccessTechnology, RadioConditions
from repro.experiments import common
from repro.measure.voip import VoIPRecord, probe_voip
from repro.worlds import paperdata as pd

PROBES_PER_DEPLOYMENT = 12


def run(seed: int = common.DEFAULT_SEED) -> Dict:
    world = common.get_world(seed)
    resources = world.resources
    google = resources.sp_targets["Google"]
    conditions = RadioConditions(RadioAccessTechnology.NR, 11, -84.0, 13.0)

    rows: Dict = {}
    for entry in pd.DEVICE_CAMPAIGN:
        country = entry.country_iso3
        rng = random.Random(f"{seed}:voip:{country}")
        spec = world.offering(country)
        city = world.cities.get(spec.user_city, country)
        physical_operator = world.operators.get(pd.PHYSICAL_SIM_OPERATORS[country])

        device = UserEquipment.provision("Samsung S21+ 5G", city, rng)
        physical_slot = device.install_sim(issue_physical_sim(physical_operator, rng))
        esim_slot = device.install_sim(world.sell_esim(country, rng))

        for label, slot, v_mno in (
            ("SIM", physical_slot, physical_operator.name),
            ("eSIM", esim_slot, spec.v_mno),
        ):
            records: List[VoIPRecord] = []
            for _ in range(PROBES_PER_DEPLOYMENT):
                session = device.switch_to(slot, v_mno, world.factory, rng)
                records.append(
                    probe_voip(session, device.active_sim, google,
                               resources.fabric, conditions, rng)
                )
            config = records[0].context.config_label
            rows[(country, config)] = {
                "mos_median": statistics.median(r.mos for r in records),
                "jitter_median_ms": statistics.median(r.jitter_ms for r in records),
                "loss_mean": statistics.fmean(r.loss_rate for r in records),
                "rtt_median_ms": statistics.median(r.mean_rtt_ms for r in records),
                "usable_share": statistics.fmean(
                    1.0 if r.usable_for_calls else 0.0 for r in records
                ),
            }
        device.detach()

    by_config: Dict[str, List[float]] = {}
    for (country, config), stats in rows.items():
        by_config.setdefault(config, []).append(stats["mos_median"])
    return {
        "rows": dict(sorted(rows.items())),
        "mos_by_config": {
            config: statistics.median(values) for config, values in by_config.items()
        },
    }


def format_result(result: Dict) -> str:
    lines = [
        f"{'Country':8} {'Config':12} {'MOS':>5} {'jitter':>8} {'loss':>7} "
        f"{'RTT':>7} {'usable':>7}"
    ]
    for (country, config), stats in result["rows"].items():
        lines.append(
            f"{country:8} {config:12} {stats['mos_median']:>5.2f} "
            f"{stats['jitter_median_ms']:>7.1f}ms {stats['loss_mean']:>6.1%} "
            f"{stats['rtt_median_ms']:>6.0f}ms {stats['usable_share']:>7.0%}"
        )
    lines.append(
        "median MOS by config: "
        + ", ".join(f"{cfg} {mos:.2f}" for cfg, mos in sorted(result["mos_by_config"].items()))
    )
    return "\n".join(lines)
