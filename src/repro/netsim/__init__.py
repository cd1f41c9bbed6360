"""Discrete-event network simulator used as the Internet substrate.

The paper ran its measurements over the real Internet through the
BrightData proxy network.  This package provides the synthetic
equivalent: an event-driven simulator (:mod:`repro.netsim.engine`), a
geography-aware latency model (:mod:`repro.netsim.latency`), hosts with
UDP/TCP socket APIs (:mod:`repro.netsim.host`,
:mod:`repro.netsim.sockets`) and the network fabric that moves messages
between them (:mod:`repro.netsim.network`).
"""

from repro.netsim.engine import Event, Process, Simulator, Timeout
from repro.netsim.host import Host, SiteProfile
from repro.netsim.latency import LatencyModel, LatencyParams
from repro.netsim.network import Network
from repro.netsim.sockets import (
    Datagram,
    ListenerClosed,
    TcpConnection,
    TcpListener,
    UdpSocket,
)

__all__ = [
    "Datagram",
    "Event",
    "Host",
    "LatencyModel",
    "LatencyParams",
    "ListenerClosed",
    "Network",
    "Process",
    "SiteProfile",
    "Simulator",
    "TcpConnection",
    "TcpListener",
    "Timeout",
    "UdpSocket",
]
