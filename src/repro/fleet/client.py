""":class:`FleetClient`: a :class:`~repro.client.Client` for fleet routers.

The router speaks the ordinary wire protocol, so a plain ``Client``
already works against a fleet.  ``FleetClient`` adds the fleet-aware
observability surface: :meth:`router_stats` and :meth:`shard_rollup`
unpack the router's two-level STATS payload (``{"router": ..., "shards":
{id: per-shard stats}}``) and aggregate the engine counters — the
``execution`` section (all zeros since scans run serially; kept for the
append-only STATS schema) and the ``open_adaptive`` counters — across
every reporting shard.
"""

from __future__ import annotations

from repro.client.client import Client


#: engine.cache_stats() section -> counters summed across shards.
_ROLLUP_COUNTERS = {
    "execution": (
        "workers",
        "worker_restarts",
        "worker_crashes",
        "parallel_batches",
        "local_batches",
        "tasks_dispatched",
        "plan_fallbacks",
        "pool_busy",
        "segments_shared",
        "segment_reuses",
        "segment_evictions",
        "live_segments",
    ),
    "open_adaptive": (
        "runs",
        "early_stops",
    ),
}


class FleetClient(Client):
    """Drop-in pooled client for a :class:`~repro.fleet.router.FleetRouter`.

    Everything a ``Client`` does works unchanged (``execute``,
    ``execute_script``, ``query``, ``stats``, pooling, reconnect-once);
    the additions below only interpret the router's richer STATS shape.
    """

    def router_stats(self) -> dict:
        """The router's own section of STATS: routing counters, up/down
        shard sets, and the partition table."""
        return self.stats().get("router", {})

    def shard_stats(self) -> dict:
        """Per-shard raw STATS payloads keyed by shard id (a shard that
        could not answer maps to ``{"error": ...}``)."""
        return self.stats().get("shards", {})

    def shard_rollup(self) -> dict:
        """Engine counters summed across every reporting shard.

        Returns ``{"shards_reporting": n, "shards_down": [...],
        "execution": {...}, "open_adaptive": {...}}`` where each section
        sums the counters in :data:`_ROLLUP_COUNTERS` over shards whose
        STATS included them.  A down or erroring shard never skews the
        sums: it contributes nothing (missing counters default to 0) and
        is named in ``shards_down`` so callers can tell "small total"
        from "partial fleet".
        """
        rollup: dict = {"shards_reporting": 0, "shards_down": []}
        for section, counters in _ROLLUP_COUNTERS.items():
            rollup[section] = {counter: 0 for counter in counters}
        for shard_id, payload in sorted(self.shard_stats().items()):
            engine = payload.get("engine") if isinstance(payload, dict) else None
            if not isinstance(engine, dict):
                rollup["shards_down"].append(shard_id)
                continue
            rollup["shards_reporting"] += 1
            for section, counters in _ROLLUP_COUNTERS.items():
                values = engine.get(section)
                if not isinstance(values, dict):
                    continue
                for counter in counters:
                    rollup[section][counter] += int(values.get(counter, 0))
        return rollup
