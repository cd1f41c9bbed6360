"""The dataset container with query helpers and serialisation."""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set

from repro.dataset.records import ClientRecord, Do53Sample, DohSample
from repro.ioutil import atomic_write_json

__all__ = ["Dataset"]


@dataclass
class Dataset:
    """Clients plus their DoH and Do53 samples."""

    clients: List[ClientRecord] = field(default_factory=list)
    doh: List[DohSample] = field(default_factory=list)
    do53: List[Do53Sample] = field(default_factory=list)
    #: Countries analysed per-country need at least this many clients
    #: per provider (paper: 10; scaled runs shrink it proportionally).
    min_clients_per_country: int = 10

    # -- indices ---------------------------------------------------------

    def countries(self) -> List[str]:
        """All countries with at least one client."""
        return sorted({client.country for client in self.clients})

    def providers(self) -> List[str]:
        """All providers with at least one DoH sample."""
        return sorted({sample.provider for sample in self.doh})

    # -- filtered views -----------------------------------------------------

    def successful_doh(self, provider: Optional[str] = None) -> List[DohSample]:
        """Successful DoH samples, optionally for one provider."""
        return [
            sample
            for sample in self.doh
            if sample.success and (provider is None or sample.provider == provider)
        ]

    def valid_do53(self, source: Optional[str] = None) -> List[Do53Sample]:
        """Valid Do53 samples, optionally from one platform."""
        return [
            sample
            for sample in self.do53
            if sample.success
            and sample.valid
            and (source is None or sample.source == source)
        ]

    def clients_per_country(self) -> Dict[str, int]:
        """Unique clients per country."""
        counts: Dict[str, int] = {}
        for client in self.clients:
            counts[client.country] = counts.get(client.country, 0) + 1
        return counts

    def analyzed_countries(self) -> List[str]:
        """Countries meeting the paper's per-provider client minimum."""
        eligible: Optional[Set[str]] = None
        for provider in self.providers():
            per_country: Dict[str, Set[str]] = {}
            for sample in self.successful_doh(provider):
                per_country.setdefault(sample.country, set()).add(
                    sample.node_id
                )
            good = {
                country
                for country, ids in per_country.items()
                if len(ids) >= self.min_clients_per_country
            }
            eligible = good if eligible is None else (eligible & good)
        return sorted(eligible or set())

    # -- composition stats (Table 3) ------------------------------------------

    def unique_clients(self, provider: Optional[str] = None) -> int:
        """Unique clients, optionally those a provider measured (Table 3)."""
        if provider is None:
            return len({client.node_id for client in self.clients})
        return len(
            {sample.node_id for sample in self.successful_doh(provider)}
        )

    def unique_countries(self, provider: Optional[str] = None) -> int:
        """Unique countries, optionally per provider (Table 3)."""
        if provider is None:
            return len(self.countries())
        return len(
            {sample.country for sample in self.successful_doh(provider)}
        )

    # -- incremental merge -------------------------------------------------

    def merge(self, delta: "Dataset") -> "Dataset":
        """A new dataset holding this one plus *delta*'s samples.

        The merge rule for incremental campaigns (``repro ckpt
        extend``): base records keep their exact order and bytes, delta
        records are appended after them, and clients already registered
        in the base keep their base row (a node re-measured by a delta
        is the same client).  Merging the same delta onto the same base
        therefore always produces the same bytes, and merging an empty
        delta reproduces the base exactly.
        """
        known = {client.node_id for client in self.clients}
        return Dataset(
            clients=list(self.clients)
            + [c for c in delta.clients if c.node_id not in known],
            doh=list(self.doh) + list(delta.doh),
            do53=list(self.do53) + list(delta.do53),
            min_clients_per_country=self.min_clients_per_country,
        )

    # -- serialisation -----------------------------------------------------------

    def to_json(self) -> Dict:
        """Plain-dict form of the whole dataset."""
        return {
            "min_clients_per_country": self.min_clients_per_country,
            "clients": [client.to_json() for client in self.clients],
            "doh": [sample.to_json() for sample in self.doh],
            "do53": [sample.to_json() for sample in self.do53],
        }

    @classmethod
    def from_json(cls, data: Dict) -> "Dataset":
        return cls(
            clients=[ClientRecord.from_json(c) for c in data["clients"]],
            doh=[DohSample.from_json(s) for s in data["doh"]],
            do53=[Do53Sample.from_json(s) for s in data["do53"]],
            min_clients_per_country=data.get("min_clients_per_country", 10),
        )

    def save(self, path: str, payload: Optional[Dict] = None) -> None:
        """Write the dataset as JSON to *path* (atomically: a kill
        mid-save never leaves a truncated dataset behind).

        *payload* is this dataset's :meth:`to_json` form when the caller
        already built it.
        """
        atomic_write_json(
            path, self.to_json() if payload is None else payload
        )

    @classmethod
    def load(cls, path: str) -> "Dataset":
        with open(path) as handle:
            return cls.from_json(json.load(handle))

    def summary(self) -> str:
        """Human-readable one-paragraph description."""
        return (
            "Dataset: {} clients, {} countries, {} DoH samples "
            "({} successful), {} Do53 samples ({} valid), "
            "{} analysed countries".format(
                len(self.clients),
                len(self.countries()),
                len(self.doh),
                len(self.successful_doh()),
                len(self.do53),
                len(self.valid_do53()),
                len(self.analyzed_countries()),
            )
        )
