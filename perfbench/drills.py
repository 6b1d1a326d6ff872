"""Closing drills of the ``drag`` and ``remote`` workloads.

Their timed loops never migrate, fail over or restart anything, yet
every run reports those latencies: after the loop, a few rounds of the
paper's §7 machinery run on the workload's own two-shard stack.  Shard
0 is the workload's WM (the crowded desktop, or the served swm); shard
1 is a spare.  Each round live-migrates every routed client to the
other shard, crashes the spare so the router evacuates its clients
onto shard 0, and crashes shard 0's WM so its successor must adopt
every window there.
"""

from __future__ import annotations

from repro import Swm
from repro.xserver.faults import CRASH, SHARD_CRASH, FaultPlan
from repro.xserver.shard import HEALTHY

from harness import OperationFailed, derive_seed

KINDS = ["migrate", "recover", "failover"]


def storeless_factory(db, places_path: str):
    """A shard WM factory for *db* that leaves out the checkpoint store
    the shard offers: store I/O is the ``session`` workload's subject,
    not these stacks'."""
    def factory(server, store):
        return Swm(server, db, places_path=places_path)

    return factory


def crash_wm(shard, seed: int):
    """An operation that crashes *shard*'s WM at its next request and
    returns once the supervisor's successor has adopted every window."""

    def operation() -> None:
        wm = shard.wm
        managed = next(m for m in wm.managed.values() if not m.is_internal)
        plan = FaultPlan(seed)
        plan.rule(CRASH, probability=1.0, max_fires=1,
                  clients=[wm.conn.client_id])
        restarts = shard.sup.restarts
        shard.server.install_faults(plan)
        try:
            shard.run(wm.raise_managed, managed)
            shard.pump()
        finally:
            shard.server.clear_faults()
        if shard.sup.restarts != restarts + 1:
            raise OperationFailed("the WM crash did not restart the WM")

    return operation


def crash_shard(router, shard_id: int, seed: int):
    """An operation that crashes a whole shard at a resident client's
    next request and returns once the router has evacuated it."""

    def operation() -> None:
        shard = router.shards[shard_id]
        victim = next(r for r in router.clients.values() if r.shard_id == shard_id)
        plan = FaultPlan(seed)
        plan.rule(SHARD_CRASH, probability=1.0, max_fires=1)
        shard.server.install_faults(plan)
        router.call(shard_id, victim.app.move_resize, 20, 20, 240, 180)
        if shard.health == HEALTHY:
            raise OperationFailed("the shard crash never fired")

    return operation


def run_drills(recorder, router, seed: int, rounds: int, call) -> None:
    """*rounds* drill rounds; *call* runs a function where shard 0's
    server may be touched (directly, or on a wire loop)."""
    recorder.settle()
    for index in range(rounds):
        spare = router.shards[1]
        while spare.health != HEALTHY:
            call(router.pump)
        for rec in sorted(router.clients.values(), key=lambda r: r.cid):
            recorder.op("migrate", call, router.migrate, rec.cid, 1 - rec.shard_id)
            recorder.settle()
        if any(r.shard_id == 1 for r in router.clients.values()):
            recorder.op("failover", call,
                        crash_shard(router, 1, derive_seed(seed, f"shard-{index}")))
            recorder.settle()
        recorder.op("recover", call,
                    crash_wm(router.shards[0], derive_seed(seed, f"wm-{index}")))
        recorder.settle()
    for problem in call(router.problems):
        recorder.expect(False, f"after the drills: {problem}")
