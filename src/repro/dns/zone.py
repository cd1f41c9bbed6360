"""Zone data with delegations and wildcard synthesis.

The paper's authoritative server hosts ``a.com`` with a wildcard so
every fresh ``<UUID>.a.com`` query is answerable without pre-registering
names (that is what forces the cache miss at every layer).  The zone
machinery also backs the simulated root and ``com`` servers used by the
recursive resolver.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.dns.name import DomainName
from repro.dns.records import (
    NSRecord,
    RRClass,
    RRType,
    ResourceRecord,
    SOARecord,
)

__all__ = ["LookupResult", "Zone", "ZoneError"]


class ZoneError(ValueError):
    """Inconsistent zone contents."""


@dataclass(frozen=True)
class LookupResult:
    """Outcome of a zone lookup.

    Exactly one of the shapes below applies:

    * answer:      ``answers`` non-empty (possibly wildcard-synthesised)
    * delegation:  ``delegation`` non-empty (NS records of a child zone)
    * no data:     name exists, type doesn't — ``soa`` set, nxdomain False
    * nxdomain:    name doesn't exist — ``soa`` set, nxdomain True
    """

    answers: Tuple[ResourceRecord, ...] = ()
    delegation: Tuple[ResourceRecord, ...] = ()
    glue: Tuple[ResourceRecord, ...] = ()
    soa: Optional[ResourceRecord] = None
    nxdomain: bool = False

    @property
    def is_answer(self) -> bool:
        return bool(self.answers)

    @property
    def is_delegation(self) -> bool:
        return bool(self.delegation)


class Zone:
    """One authoritative zone: an origin, records, and delegations."""

    def __init__(self, origin: DomainName, default_ttl: int = 300) -> None:
        self.origin = DomainName(origin)
        self.default_ttl = default_ttl
        self._records: Dict[Tuple[DomainName, int], List[ResourceRecord]] = {}
        self._names: set = set()
        soa = SOARecord(
            mname=self.origin.child("ns1") if not self.origin.is_root
            else DomainName("ns.root"),
            rname=DomainName("hostmaster.{}".format(self.origin)
                             if not self.origin.is_root else "hostmaster"),
            serial=1,
        )
        self.soa_record = ResourceRecord(
            self.origin, RRType.SOA, RRClass.IN, default_ttl, soa
        )
        self._index(self.soa_record)

    # -- building ----------------------------------------------------------

    def _index(self, record: ResourceRecord) -> None:
        key = (record.name, record.rtype)
        self._records.setdefault(key, []).append(record)
        # Register the name and all intermediate names (empty non-terminals).
        name = record.name
        while True:
            self._names.add(name)
            if name == self.origin or name.is_root:
                break
            name = name.parent()

    def add(self, record: ResourceRecord) -> None:
        """Add *record*; it must live at or under the origin."""
        if not record.name.is_subdomain_of(self.origin):
            raise ZoneError(
                "{} is outside zone {}".format(record.name, self.origin)
            )
        self._index(record)

    def add_record(self, name: str, rtype: int, rdata, ttl: Optional[int] = None
                   ) -> ResourceRecord:
        """Convenience: build and add a record from parts."""
        record = ResourceRecord(
            DomainName(name), rtype, RRClass.IN,
            self.default_ttl if ttl is None else ttl, rdata,
        )
        self.add(record)
        return record

    def delegate(self, child: str, ns_name: str, ns_address: str,
                 ttl: Optional[int] = None) -> None:
        """Delegate *child* to a nameserver, with A glue."""
        from repro.dns.records import ARecord

        child_name = DomainName(child)
        if child_name == self.origin:
            raise ZoneError("cannot delegate the zone apex")
        self.add_record(child, RRType.NS, NSRecord(DomainName(ns_name)), ttl)
        self.add_record(ns_name, RRType.A, ARecord(ns_address), ttl)

    # -- lookup --------------------------------------------------------------

    def _delegation_point(self, name: DomainName) -> Optional[DomainName]:
        """The closest enclosing delegated name strictly below origin."""
        probe = name
        best = None
        while probe != self.origin and len(probe) > len(self.origin):
            if (probe, RRType.NS) in self._records and probe != self.origin:
                best = probe
            probe = probe.parent()
        return best

    def lookup(self, name: DomainName, rtype: int) -> LookupResult:
        """Authoritative lookup of *name*/*rtype* within this zone."""
        if not name.is_subdomain_of(self.origin):
            raise ZoneError("{} is outside zone {}".format(name, self.origin))

        delegation_point = self._delegation_point(name)
        if delegation_point is not None and (
            name != delegation_point or rtype != RRType.NS
        ):
            ns_records = tuple(self._records[(delegation_point, RRType.NS)])
            glue: List[ResourceRecord] = []
            for ns in ns_records:
                target = ns.rdata.nsdname  # type: ignore[union-attr]
                glue.extend(self._records.get((target, RRType.A), []))
            return LookupResult(delegation=ns_records, glue=tuple(glue))

        exact = self._records.get((name, rtype))
        if exact:
            return LookupResult(answers=tuple(exact))

        # CNAME at the name answers any type.
        cname = self._records.get((name, RRType.CNAME))
        if cname:
            return LookupResult(answers=tuple(cname))

        if name in self._names:
            return LookupResult(soa=self.soa_record, nxdomain=False)

        # Wildcard synthesis (RFC 1034 §4.3.3): the source of synthesis
        # is *.<closest enclosing existing name>.
        closest = name
        while closest not in self._names and len(closest) > len(self.origin):
            closest = closest.parent()
        wildcard = closest.child("*")
        wild = self._records.get((wildcard, rtype))
        if wild:
            return LookupResult(
                answers=tuple(record.with_name(name) for record in wild)
            )
        if wildcard in self._names:
            return LookupResult(soa=self.soa_record, nxdomain=False)

        return LookupResult(soa=self.soa_record, nxdomain=True)
