"""Butterfly network-on-chip model.

The accelerator's EP engines and MCMC samplers communicate over a butterfly
NoC generated with CONNECT (§5).  The model captures what matters for the
latency estimates: the number of ports, the hop count between any two ports,
and the per-hop/per-flit cycle costs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class NoCLatency:
    """Latency breakdown of one NoC transfer."""

    hops: int
    cycles: float


class ButterflyNoC:
    """A k-ary butterfly NoC with a power-of-two number of ports.

    Parameters
    ----------
    n_ports:
        Number of endpoints (the paper uses 16: 4 EP engines + 12 samplers).
    cycles_per_hop:
        Router traversal latency in cycles.
    cycles_per_flit:
        Serialisation cost per payload flit.
    flit_bytes:
        Payload bytes per flit.
    """

    def __init__(
        self,
        n_ports: int = 16,
        *,
        cycles_per_hop: float = 2.0,
        cycles_per_flit: float = 1.0,
        flit_bytes: int = 16,
    ) -> None:
        if n_ports < 2 or (n_ports & (n_ports - 1)) != 0:
            raise ValueError("n_ports must be a power of two >= 2")
        if cycles_per_hop <= 0 or cycles_per_flit <= 0 or flit_bytes <= 0:
            raise ValueError("latency parameters must be positive")
        self.n_ports = n_ports
        self.cycles_per_hop = cycles_per_hop
        self.cycles_per_flit = cycles_per_flit
        self.flit_bytes = flit_bytes

    @property
    def stages(self) -> int:
        """Number of switching stages between any pair of ports."""
        return int(math.log2(self.n_ports))

    def hops(self, source: int, destination: int) -> int:
        """Router hops between two ports (uniform in a butterfly)."""
        self._validate_port(source)
        self._validate_port(destination)
        if source == destination:
            return 0
        return self.stages

    def transfer(self, source: int, destination: int, payload_bytes: int) -> NoCLatency:
        """Latency of moving *payload_bytes* from one port to another."""
        if payload_bytes < 0:
            raise ValueError("payload_bytes must be non-negative")
        hop_count = self.hops(source, destination)
        flits = max(1, math.ceil(payload_bytes / self.flit_bytes))
        cycles = hop_count * self.cycles_per_hop + flits * self.cycles_per_flit
        return NoCLatency(hops=hop_count, cycles=float(cycles))

    def site_update_payload_bytes(self, n_variables: int) -> int:
        """Payload of one site update's state: a ``w x w`` natural-parameter
        block plus its shift vector, in 8-byte words."""
        if n_variables <= 0:
            raise ValueError("n_variables must be positive")
        return 8 * n_variables * (n_variables + 1)

    def site_update_cycles(self, n_variables: int) -> float:
        """NoC cycles for one site update's round trip.

        The engine ships the site state to its samplers and the updated
        global block back to the controller — the two transfers every site
        visit pays, whether priced analytically or from a measured trace.
        """
        payload = self.site_update_payload_bytes(n_variables)
        return (
            self.transfer(0, self.n_ports - 1, payload).cycles
            + self.transfer(self.n_ports - 1, 0, payload).cycles
        )

    def _validate_port(self, port: int) -> None:
        if not 0 <= port < self.n_ports:
            raise ValueError(f"port {port} out of range [0, {self.n_ports})")
