"""Ablations of the design choices DESIGN.md calls out.

* ``pgw_selection`` — static b-MNO-keyed PGW assignment (the measured
  reality) vs geography-aware nearest-PGW selection (the paper's future
  direction): how much latency the France/Uzbekistan eSIMs would gain.
* ``lbo`` — what Local Breakout would deliver if the trust problems were
  solved: breakout at the v-MNO itself.
* ``doh`` — the DoH-on-by-default accident: lookup times with and
  without DNS-over-HTTPS on the IHBO resolvers.
* ``cqi_filter`` — how much radio noise the paper's CQI >= 7 admission
  rule removes from the roaming bandwidth comparison.
"""

from __future__ import annotations

import random
import statistics
from typing import Dict

from repro.cellular import (
    PGWSelection,
    RoamingAgreement,
    RoamingArchitecture,
    SIMKind,
    UserEquipment,
)
from repro.experiments import common


def _attach_with_selection(world, country: str, selection: PGWSelection, rng):
    """Attach an eSIM in ``country`` under a modified selection policy."""
    spec = world.offering(country)
    original = world.agreements.get(spec.b_mno, spec.v_mno)
    modified = RoamingAgreement(
        b_mno_name=original.b_mno_name,
        v_mno_name=original.v_mno_name,
        architecture=original.architecture,
        pgw_site_ids=tuple(sorted(world.pgw_sites))
        if selection is PGWSelection.NEAREST
        else original.pgw_site_ids,
        selection=selection,
        tunnel_stretch=original.tunnel_stretch,
        extra_rtt_ms=original.extra_rtt_ms,
    )
    # NEAREST may only choose among hub-breakout sites the b-MNO's IPX
    # contract can reach.
    if selection is PGWSelection.NEAREST:
        reachable = tuple(
            site_id for site_id in sorted(world.pgw_sites)
            if world.ipx.can_reach(original.b_mno_name, site_id)
        )
        modified = RoamingAgreement(
            b_mno_name=original.b_mno_name,
            v_mno_name=original.v_mno_name,
            architecture=original.architecture,
            pgw_site_ids=reachable or original.pgw_site_ids,
            selection=selection,
            tunnel_stretch=original.tunnel_stretch,
            extra_rtt_ms=original.extra_rtt_ms,
        )

    # Swap the agreement in, attach, swap back.
    world.agreements._by_key[original.key] = modified  # noqa: SLF001
    try:
        esim = world.sell_esim(country, rng)
        ue = UserEquipment.provision(
            "Samsung S21+ 5G", world.cities.get(spec.user_city, country), rng
        )
        ue.install_sim(esim)
        session = ue.switch_to(0, spec.v_mno, world.factory, rng)
    finally:
        world.agreements._by_key[original.key] = original  # noqa: SLF001
    return session


def run_pgw_selection(seed: int = common.DEFAULT_SEED, samples: int = 20) -> Dict:
    """Static vs nearest PGW selection for the transatlantic eSIMs."""
    world = common.get_world(seed)
    out: Dict = {}
    for country in ("FRA", "UZB", "TUR"):
        rng = random.Random(f"{seed}:ablate-pgw:{country}")
        static_rtts, nearest_rtts = [], []
        nearest_sites = set()
        for _ in range(samples):
            s_static = _attach_with_selection(world, country, PGWSelection.STATIC_BMNO, rng)
            static_rtts.append(s_static.base_private_rtt_ms)
            s_near = _attach_with_selection(world, country, PGWSelection.NEAREST, rng)
            nearest_rtts.append(s_near.base_private_rtt_ms)
            nearest_sites.add(s_near.pgw_site.site_id)
        out[country] = {
            "static_median_ms": statistics.median(static_rtts),
            "nearest_median_ms": statistics.median(nearest_rtts),
            "nearest_sites": sorted(nearest_sites),
            "saving": 1 - statistics.median(nearest_rtts) / statistics.median(static_rtts),
        }
    return out


def run_lbo(seed: int = common.DEFAULT_SEED, samples: int = 20) -> Dict:
    """IHBO as deployed vs hypothetical Local Breakout at the v-MNO."""
    world = common.get_world(seed)
    out: Dict = {}
    for country in ("ESP", "GEO", "UZB"):
        spec = world.offering(country)
        rng = random.Random(f"{seed}:ablate-lbo:{country}")
        original = world.agreements.get(spec.b_mno, spec.v_mno)
        lbo_site = None
        for site_id, site in world.pgw_sites.items():
            if site.provider_org == spec.v_mno:
                lbo_site = site_id
                break
        assert lbo_site is not None, f"{spec.v_mno} has no core site"
        lbo_agreement = RoamingAgreement(
            b_mno_name=original.b_mno_name,
            v_mno_name=original.v_mno_name,
            architecture=RoamingArchitecture.LBO,
            pgw_site_ids=(lbo_site,),
            selection=PGWSelection.STATIC_BMNO,
            tunnel_stretch=1.4,          # in-country path
            extra_rtt_ms=0.0,
        )
        ihbo_rtts, lbo_rtts = [], []
        for _ in range(samples):
            session = _attach_with_selection(world, country, original.selection, rng)
            ihbo_rtts.append(session.base_private_rtt_ms)
            world.agreements._by_key[original.key] = lbo_agreement  # noqa: SLF001
            try:
                esim = world.sell_esim(country, rng)
                ue = UserEquipment.provision(
                    "Samsung S21+ 5G", world.cities.get(spec.user_city, country), rng
                )
                ue.install_sim(esim)
                lbo_session = ue.switch_to(0, spec.v_mno, world.factory, rng)
            finally:
                world.agreements._by_key[original.key] = original  # noqa: SLF001
            lbo_rtts.append(lbo_session.base_private_rtt_ms)
            assert lbo_session.architecture is RoamingArchitecture.LBO
        out[country] = {
            "ihbo_median_ms": statistics.median(ihbo_rtts),
            "lbo_median_ms": statistics.median(lbo_rtts),
            "saving": 1 - statistics.median(lbo_rtts) / statistics.median(ihbo_rtts),
        }
    return out


def run_doh(seed: int = common.DEFAULT_SEED, samples: int = 200) -> Dict:
    """DoH on vs off for an IHBO session's resolver."""
    world = common.get_world(seed)
    spec = world.offering("ESP")
    rng = random.Random(f"{seed}:ablate-doh")
    esim = world.sell_esim("ESP", rng)
    ue = UserEquipment.provision(
        "Samsung S21+ 5G", world.cities.get(spec.user_city, "ESP"), rng
    )
    ue.install_sim(esim)
    session = ue.switch_to(0, spec.v_mno, world.factory, rng)
    dns = world.resources.dns_for(session)
    with_doh = [
        dns.resolve(session, world.fabric, rng, use_doh=True).lookup_ms
        for _ in range(samples)
    ]
    without = [
        dns.resolve(session, world.fabric, rng, use_doh=False).lookup_ms
        for _ in range(samples)
    ]
    return {
        "doh_median_ms": statistics.median(with_doh),
        "plain_median_ms": statistics.median(without),
        "overhead": statistics.median(with_doh) / statistics.median(without) - 1,
    }


def run_cqi_filter(scale: float = common.DEFAULT_SCALE, seed: int = common.DEFAULT_SEED) -> Dict:
    """Roaming-eSIM download statistics with and without the CQI filter."""
    dataset = common.get_device_dataset(scale, seed)
    esim = (
        dataset.select("speedtest")
        .where(sim_kind=SIMKind.ESIM)
        .filter(lambda r: r.context.architecture is not RoamingArchitecture.NATIVE)
        .records()
    )
    unfiltered = [r.download_mbps for r in esim]
    filtered = [r.download_mbps for r in esim if r.passes_cqi_filter]
    return {
        "all_count": len(unfiltered),
        "filtered_count": len(filtered),
        "retention": len(filtered) / len(unfiltered) if unfiltered else None,
        "mean_all": statistics.fmean(unfiltered),
        "mean_filtered": statistics.fmean(filtered),
        "stdev_all": statistics.pstdev(unfiltered),
        "stdev_filtered": statistics.pstdev(filtered),
    }


def run(seed: int = common.DEFAULT_SEED) -> Dict:
    """All four ablations."""
    return {
        "pgw_selection": run_pgw_selection(seed),
        "lbo": run_lbo(seed),
        "doh": run_doh(seed=seed),
        "cqi_filter": run_cqi_filter(seed=seed),
    }


def format_result(result: Dict) -> str:
    lines = ["-- ablation: static vs nearest PGW selection --"]
    for country, data in result["pgw_selection"].items():
        lines.append(
            f"{country}: static {data['static_median_ms']:.0f} ms -> nearest "
            f"{data['nearest_median_ms']:.0f} ms via {data['nearest_sites']} "
            f"({data['saving']:.0%} saved)"
        )
    lines.append("-- ablation: IHBO vs hypothetical LBO --")
    for country, data in result["lbo"].items():
        lines.append(
            f"{country}: IHBO {data['ihbo_median_ms']:.0f} ms -> LBO "
            f"{data['lbo_median_ms']:.0f} ms ({data['saving']:.0%} saved)"
        )
    doh = result["doh"]
    lines.append(
        f"-- ablation: DoH {doh['doh_median_ms']:.0f} ms vs plain "
        f"{doh['plain_median_ms']:.0f} ms (+{doh['overhead']:.0%}) --"
    )
    cqi = result["cqi_filter"]
    lines.append(
        f"-- ablation: CQI filter keeps {cqi['retention']:.0%} of runs; "
        f"mean {cqi['mean_all']:.1f} -> {cqi['mean_filtered']:.1f} Mbps, "
        f"stdev {cqi['stdev_all']:.1f} -> {cqi['stdev_filtered']:.1f} --"
    )
    return "\n".join(lines)
