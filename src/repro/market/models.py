"""Market data types."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class ESIMOffer:
    """One plan listed on the aggregator on one day."""

    provider: str
    country_iso3: str
    data_gb: float
    price_usd: float
    day: int                 # days since the crawl epoch (2024-02-01)
    vantage: str = "NJ"

    def __post_init__(self) -> None:
        if self.data_gb <= 0:
            raise ValueError("plan size must be positive")
        if self.price_usd <= 0:
            raise ValueError("price must be positive")

    @property
    def usd_per_gb(self) -> float:
        return self.price_usd / self.data_gb


@dataclass(frozen=True)
class LocalSIMOffer:
    """A physical-SIM offer a traveller can buy in-country."""

    country_iso3: str
    operator: str
    price_usd: float
    data_gb: float
    sim_fee_usd: float = 0.0

    def __post_init__(self) -> None:
        if self.data_gb <= 0 or self.price_usd <= 0 or self.sim_fee_usd < 0:
            raise ValueError("invalid local SIM offer")

    @property
    def usd_per_gb(self) -> float:
        """Marginal data price, excluding the SIM card fee."""
        return self.price_usd / self.data_gb

    @property
    def total_cost_usd(self) -> float:
        """What the traveller actually pays up front."""
        return self.price_usd + self.sim_fee_usd
