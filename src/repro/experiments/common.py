"""Shared experiment infrastructure: cached world, campaign datasets and crawl.

Two cache layers sit under every getter:

1. a process-local dict, so one benchmark session builds each expensive
   input exactly once and always hands back the *same object*;
2. the persistent :mod:`repro.core.cache` store, so a fresh process (a
   CLI invocation, a ``StudyRunner`` worker) loads the bytes a previous
   process built instead of re-simulating the campaign. Every input is
   one pickle there, the market crawl included (its typed columns
   unpickle as whole arrays).

Entries are keyed by a content fingerprint of the package version and
what the input depends on (seed, scale, the device campaign's
``ChaosConfig``); corrupt or stale entries fall back to a rebuild.
``clear_caches()`` keeps its historical semantics — it drops only the
in-memory layer (pass ``disk=True`` to also wipe the store).
"""

from __future__ import annotations

import gc
from typing import TYPE_CHECKING, Dict, Optional, Tuple

import repro
from repro import obs
from repro.core import cache as _cache

if TYPE_CHECKING:
    from repro.faults import ChaosConfig
    from repro.geo import CountryRegistry
    from repro.market import CrawlDataset, EsimDB
    from repro.measure.dataset import MeasurementDataset
    from repro.worlds import AiraloWorld

#: Default fraction of the Table 4 test counts the experiments replay.
#: 0.15 keeps a bench run in seconds while every per-country series stays
#: statistically meaningful; pass scale=1.0 for the full campaign.
DEFAULT_SCALE = 0.15
DEFAULT_SEED = 2024

#: The crawl samples the February-May listings every this many days.
CRAWL_STEP_DAYS = 7
#: The crawl day (0 = 2024-02-01) whose listing the Section 6 pricing
#: figures read.
SNAPSHOT_DAY = 90

_worlds: Dict[int, AiraloWorld] = {}
_device_datasets: Dict[Tuple[int, float, Optional[ChaosConfig]], MeasurementDataset] = {}
_web_datasets: Dict[int, MeasurementDataset] = {}
_market: Optional[Tuple[EsimDB, CrawlDataset]] = None
_listings: Dict[int, CrawlDataset] = {}
_countries: Optional[CountryRegistry] = None


def _disk_key(kind: str, **parts) -> str:
    return _cache.fingerprint(kind, version=repro.__version__, **parts)


def get_world(seed: int = DEFAULT_SEED) -> AiraloWorld:
    if seed not in _worlds:
        from repro.worlds.airalo import build_airalo_world

        with obs.span("input.world", seed=seed) as span:
            store = _cache.get_default_cache()
            key = _disk_key("world", seed=seed)
            world = store.load(key)
            if world is None:
                span.set(source="build")
                world = build_airalo_world(seed=seed)
                store.store(key, world)
            else:
                span.set(source="disk")
        _worlds[seed] = world
    return _worlds[seed]


def get_device_dataset(
    scale: float = DEFAULT_SCALE,
    seed: int = DEFAULT_SEED,
    chaos: Optional[ChaosConfig] = None,
) -> MeasurementDataset:
    key = (seed, scale, chaos)
    if key not in _device_datasets:
        with obs.span(
            "input.device_dataset", seed=seed, scale=scale,
            chaos=chaos is not None and chaos.enabled,
        ) as span:
            store = _cache.get_default_cache()
            disk_key = _disk_key("device-dataset", seed=seed, scale=scale, chaos=chaos)
            dataset = store.load(disk_key)
            if dataset is None:
                span.set(source="build")
                dataset = get_world(seed).run_device_campaign(scale=scale, chaos=chaos)
                store.store(disk_key, dataset)
            else:
                span.set(source="disk")
        _device_datasets[key] = dataset
    return _device_datasets[key]


def get_web_dataset(seed: int = DEFAULT_SEED) -> MeasurementDataset:
    if seed not in _web_datasets:
        with obs.span("input.web_dataset", seed=seed) as span:
            store = _cache.get_default_cache()
            disk_key = _disk_key("web-dataset", seed=seed)
            dataset = store.load(disk_key)
            if dataset is None:
                span.set(source="build")
                dataset = get_world(seed).run_web_campaign()
                store.store(disk_key, dataset)
            else:
                span.set(source="disk")
        _web_datasets[seed] = dataset
    return _web_datasets[seed]


def get_countries() -> CountryRegistry:
    global _countries
    if _countries is None:
        from repro.geo.countries import default_country_registry

        _countries = default_country_registry()
    return _countries


def get_market() -> Tuple[EsimDB, CrawlDataset]:
    """The aggregator plus a Feb-May crawl sampled every ``CRAWL_STEP_DAYS``.

    The crawl also holds the late-April three-vantage listings. It is
    cached as its :class:`~repro.market.esimdb.OfferTable`, rebuilt when
    the loaded value is not one; the aggregator itself is rebuilt, which
    is cheaper than any load.
    """
    global _market
    if _market is None:
        from repro.market.crawler import VANTAGE_CHECK_DAY, CrawlDataset, MarketCrawler
        from repro.market.esimdb import EsimDB, OfferTable
        from repro.market.providers import build_provider_universe

        with obs.span("input.market") as span:
            store = _cache.get_default_cache()
            # Not "market-columns": that kind held the six-column layout.
            disk_key = _disk_key("market-crawl", step_days=CRAWL_STEP_DAYS)
            esimdb = EsimDB(build_provider_universe(), get_countries())
            table = store.load(disk_key)
            if isinstance(table, OfferTable):
                span.set(source="disk")
                crawl = CrawlDataset(table)
            else:
                span.set(source="build")
                crawl = MarketCrawler(esimdb).crawl_daily(
                    0, 120, step=CRAWL_STEP_DAYS, vantage_day=VANTAGE_CHECK_DAY
                )
                store.store(disk_key, crawl.table)
        _market = (esimdb, crawl)
    return _market


def get_listing(snapshot_day: int) -> CrawlDataset:
    """The aggregator's full listing on ``snapshot_day``, as columns.

    Built once per process from :func:`get_market`'s aggregator: one
    :meth:`EsimDB.offer_table` call. The Section 6 pricing figures all
    read :data:`SNAPSHOT_DAY`, so they share one listing; CLI ``market``
    and ``trip`` read the day they are asked for. It is not persisted.
    """
    if snapshot_day not in _listings:
        from repro.market.crawler import CrawlDataset

        esimdb, _ = get_market()
        with obs.span("input.listing", day=snapshot_day):
            _listings[snapshot_day] = CrawlDataset(esimdb.offer_table([snapshot_day]))
    return _listings[snapshot_day]


def clear_caches(disk: bool = False) -> None:
    """Drop every cached world/dataset (for isolation in tests).

    The persistent store survives by default — it is content-addressed,
    so a later getter returns equal bytes either way. ``disk=True``
    additionally wipes it (what ``python -m repro cache clear`` does).

    ``StudyRunner.warm_inputs`` freezes the collector over the inputs it
    loads, on the premise that they live until exit. Dropping them ends
    that premise, so this unfreezes: the collector can reclaim their
    reference cycles again.
    """
    global _market
    _worlds.clear()
    _device_datasets.clear()
    _web_datasets.clear()
    _market = None
    _listings.clear()
    gc.unfreeze()
    if disk:
        _cache.get_default_cache().clear()
