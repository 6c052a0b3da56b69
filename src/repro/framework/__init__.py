"""The Prilo / Prilo* frameworks: parties, protocol, and orchestration.

* :mod:`~repro.framework.metrics` -- timers, message-size accounting and the
  confusion counts behind PPCR (Sec. 6.3).
* :mod:`~repro.framework.messages` -- the typed protocol messages of steps
  (1)-(9) in Fig. 4.
* :mod:`~repro.framework.roles` -- DataOwner, User, Player, Dealer.
* :mod:`~repro.framework.executor` -- evaluates the Players' shares (the
  Dealer's sequences as a logical partition) in-process.
* :mod:`~repro.framework.simulator` -- the deterministic schedule simulator
  turning per-ball evaluation costs + sequences into the paper's
  time-to-results metrics.
* :mod:`~repro.framework.prilo` / :mod:`~repro.framework.prilo_star` -- the
  end-to-end engines (Alg. 3 and its optimized variant).
* :mod:`~repro.framework.server` -- multi-query batch serving with
  cross-query CMM reuse (the throughput layer over the engines).
* :mod:`~repro.framework.faults` -- seeded fault injection
  (:class:`ChaosPolicy`) threaded through the roles, TEE channel and
  artifact store.
* :mod:`~repro.framework.placement` -- the consistent-hash ball placement
  ring and the ``store shard-split`` placement manifest.
* :mod:`~repro.framework.wire` -- the gateway <-> shard frame protocol and
  the canonical-answer byte-identity contract.
* :mod:`~repro.framework.shard` / :mod:`~repro.framework.gateway` -- the
  sharded serving tier: per-shard engine processes behind loopback
  sockets, and the scatter-gather front end with consistent-hash
  routing, asyncio fan-out, and shard-death re-placement -- the only
  worker processes.

Every re-export is resolved lazily, on first attribute access: the
storage layer imports :mod:`~repro.framework.faults` and
:mod:`~repro.framework.messages`, and the engines import the storage
layer, so an eager import here would make ``import repro.storage`` cycle.
"""

_EXPORTS = {
    "executor": ("BallExecutor",),
    "faults": ("ChaosPolicy", "FaultInjector", "FaultReport"),
    "gateway": ("Gateway", "GatewayChaos", "GatewayError", "GatewayReport"),
    "metrics": ("CacheStats", "ConfusionCounts", "PhaseTimings"),
    "placement": ("HashRing", "PlacementManifest", "ring_for"),
    "prilo": ("Prilo", "PriloConfig", "QueryResult"),
    "prilo_star": ("PriloStar",),
    "roles": ("DataOwner", "Dealer", "Player", "User"),
    "server": ("BatchReport", "CMMCache", "QueryBatchEngine", "QueryStream",
               "enumeration_signature"),
    "shard": ("LocalCluster", "ShardSpec", "make_shard_specs"),
    "simulator": ("ScheduleOutcome", "simulate_schedule"),
}
_LAZY = {name: module for module, names in _EXPORTS.items()
         for name in names}


def __getattr__(name: str):
    module_name = _LAZY.get(name)
    if module_name is None:
        raise AttributeError(f"module {__name__!r} has no attribute "
                             f"{name!r}")
    import importlib

    value = getattr(importlib.import_module(f"{__name__}.{module_name}"),
                    name)
    globals()[name] = value  # bound once, as the eager import did
    return value


__all__ = sorted(_LAZY)
