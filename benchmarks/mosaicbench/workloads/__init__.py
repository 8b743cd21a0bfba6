"""The five workloads.  Each module exposes the same surface:

``NAME``, ``WHY``, ``FULL`` / ``QUICK`` sizes, ``statement_stream(seed,
sizes, count)`` (the exact SQL it will issue, for determinism checks),
``setup(stack, seed, sizes, seconds, hosted)`` (everything before the first
measured operation), ``measure(ctx, seconds, tracer)`` (the measured
phase and its correctness checks) and ``finish(ctx, outcome)`` (close,
then the metrics only a closed deployment has).
"""

from . import closed_scan, fleet_scatter, ingest_restart, open_world, served_mix

ALL = {
    module.NAME: module
    for module in (closed_scan, served_mix, open_world, ingest_restart, fleet_scatter)
}
