"""Sharded engine fleet: a router process over N independent Mosaic servers.

See ``ARCHITECTURE.md`` §8.  The fleet runs ``N`` ordinary
:mod:`repro.server` processes ("shards") behind one
:class:`~repro.fleet.router.FleetRouter` that speaks the same wire
protocol, so any :class:`~repro.client.Client` works against a fleet
unchanged.  Relations **replicate** to every shard by default; opt-in
*sliced* relations (``--partition``) scatter decomposable aggregates as
cross-shard partials and gather with the COUNT/SUM/MIN/MAX merge algebra.
"""

from repro.fleet.client import FleetClient
from repro.fleet.partition import PartitionSpec, parse_partition_option
from repro.fleet.ring import HashRing
from repro.fleet.router import FleetRouter

__all__ = [
    "FleetClient",
    "FleetRouter",
    "HashRing",
    "PartitionSpec",
    "parse_partition_option",
]
