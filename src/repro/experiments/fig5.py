"""Figure 5: data/signalling traffic of Airalo users vs Play roamers vs
native subscribers, from the UK v-MNO's core telemetry.

Deploys ten Airalo-on-Play devices in the partner network, mines their
IMSI prefixes, flags matching inbound roamers, and compares the three
populations' daily volumes.
"""

from __future__ import annotations

import random
from typing import Dict

from repro.analysis.stats import boxplot_summary
from repro.cellular import (
    CoreTelemetryGenerator,
    IMSIRange,
    PLMN,
    SubscriberPopulation,
    detect_airalo_imsis,
)
from repro.cellular.signalling import AIRALO_PROFILE, NATIVE_PROFILE, ROAMER_PROFILE
from repro.experiments import common

PLAY_PLMN = PLMN("260", "06")
OBSERVATION_DAYS = 30  # April 2024


def run(seed: int = common.DEFAULT_SEED) -> Dict:
    world = common.get_world(seed)
    rng = random.Random(f"{seed}:fig5")
    play = world.operators.get("Play")
    airalo_ranges = play.ranges_for("Airalo")
    assert airalo_ranges, "Play must rent ranges to Airalo"
    retail = IMSIRange(prefix=play.plmn.code, label="play retail")
    uk_native = IMSIRange(prefix="23410", label="uk native")

    # Signalling comes from the mechanistic control-plane model: native
    # users vs travellers (more mobility, IPX-crossing authentications)
    # vs generic Play roamers (activity split across several UK v-MNOs).
    generator = CoreTelemetryGenerator(rng)
    generator.add_population(
        SubscriberPopulation("native", 400, data_mu=5.8, data_sigma=0.8,
                             signalling_mu=0.0, signalling_sigma=0.0,
                             signalling_profile=NATIVE_PROFILE),
        [uk_native],
    )
    generator.add_population(
        SubscriberPopulation("airalo", 120, data_mu=5.7, data_sigma=0.8,
                             signalling_mu=0.0, signalling_sigma=0.0,
                             signalling_profile=AIRALO_PROFILE),
        airalo_ranges,
    )
    generator.add_population(
        SubscriberPopulation("play-roamer", 250, data_mu=4.5, data_sigma=1.0,
                             signalling_mu=0.0, signalling_sigma=0.0,
                             signalling_profile=ROAMER_PROFILE),
        [retail],
    )
    records = generator.generate(days=OBSERVATION_DAYS)

    # Detection: ten deployed devices with known Airalo IMSIs.
    deployed = [airalo_ranges[0].sample(rng) for _ in range(10)]
    roamer_imsis = {r.imsi for r in records if r.population in ("airalo", "play-roamer")}
    flagged = detect_airalo_imsis(roamer_imsis, deployed, PLAY_PLMN)

    airalo_truth = {r.imsi for r in records if r.population == "airalo"}
    roamer_truth = {r.imsi for r in records if r.population == "play-roamer"}
    detection = {
        "true_positive_rate": len(flagged & airalo_truth) / len(airalo_truth),
        "false_positives": len(flagged & roamer_truth),
    }

    series = {}
    for population in ("native", "airalo", "play-roamer"):
        data = [r.data_mb for r in records if r.population == population]
        signalling = [r.signalling_kb for r in records if r.population == population]
        series[population] = {
            "data_mb": boxplot_summary(data),
            "signalling_kb": boxplot_summary(signalling),
        }
    return {"series": series, "detection": detection, "days": OBSERVATION_DAYS}


def format_result(result: Dict) -> str:
    lines = [f"UK v-MNO telemetry over {result['days']} days"]
    for population, stats in result["series"].items():
        lines.append(
            f"{population:12} data median {stats['data_mb'].median:8.1f} MB/day   "
            f"signalling median {stats['signalling_kb'].median:7.1f} KB/day"
        )
    det = result["detection"]
    lines.append(
        f"IMSI detector: TPR {det['true_positive_rate']:.2f}, "
        f"false positives {det['false_positives']}"
    )
    return "\n".join(lines)
