"""``session``: a two-shard display router doing the paper's §7 work.

A :class:`DisplayRouter` over two supervised shards, built the way
``python -m repro serve --shards 2`` builds it (default WM factory,
checkpoint store on disk per shard), holds a few dozen clients per
shard started from seeded command lines in both the Xt (``-geometry``)
and XView (``-Wp``/``-Ws``) dialects.  The loop admits, edits, migrates
and quits clients, crashes a WM every round and a whole shard every
fourth round: places snapshots, store I/O, cold-start adoption,
supervisor and router carry the load, while populations stay too small
for the tree caches to matter.
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional

from repro.icccm.hints import ICONIC_STATE
from repro.session.places import parse_places
from repro.session.router import DisplayRouter
from repro.xserver.faults import CRASH, SHARD_CRASH, FaultPlan
from repro.xserver.shard import HEALTHY

from harness import OperationFailed, Recorder, derive_seed

SCREEN = (1152, 900, 8)
#: Clients per shard at the start of the loop (admissions and quits
#: balance, so the population stays here).
SHARD_CLIENTS = 24
ADMITS = 4
QUITS = 4
MIGRATES = 2
#: The dirty actions of one round, in order.
ACTIONS = (
    "move", "resize", "move", "iconify", "move", "stick", "raise", "move",
    "resize", "iconify", "move", "stick", "raise", "move", "resize", "iconify",
)
#: A whole shard crashes every this many rounds.
FAILOVER_EVERY = 4
#: Router pumps that let every debounced autosave land (the restart
#: controller's debounce is 4 housekeeping ticks).
SETTLE_PUMPS = 8

PROGRAMS = ("xterm", "xclock", "xload", "xlogo", "xbiff", "oclock", "cmdtool")

LOOP_KINDS = ["admit", *sorted(set(ACTIONS)), "migrate", "quit", "recover",
              "failover", "tick"]


class CommandLines:
    """Seeded client command lines.  Programs come in blocks holding
    each of PROGRAMS once, in a seeded order, so the mix is the same
    for every seed; the title makes every WM_COMMAND unique, so restart
    records match exactly one client."""

    def __init__(self, seed: int) -> None:
        self.rng = random.Random(derive_seed(seed, "session-clients"))
        self.block: List[str] = []
        self.count = 0

    def next(self) -> List[str]:
        rng = self.rng
        if not self.block:
            self.block = list(PROGRAMS)
            rng.shuffle(self.block)
        program = self.block.pop()
        title = f"s{self.count}"
        self.count += 1
        x, y = rng.randrange(0, 900), rng.randrange(0, 700)
        if program == "cmdtool":
            return [program, "-Wp", str(x), str(y), "-Ws",
                    str(rng.randrange(200, 500)), str(rng.randrange(120, 360)),
                    "-Wl", title]
        geometry = f"+{x}+{y}"
        if program == "xterm" and rng.random() < 0.5:
            geometry = f"{rng.randrange(40, 100)}x{rng.randrange(12, 40)}{geometry}"
        return [program, "-geometry", geometry, "-title", title]


class SessionBench:
    """Setup, timed loop and checks of the ``session`` workload."""

    name = "session"
    loop_kinds = LOOP_KINDS

    def __init__(self, seed: int, work, recorder: Recorder,
                 shard_clients: int = SHARD_CLIENTS) -> None:
        self.seed = seed
        self.work = work
        self.rec = recorder
        self.shard_clients = shard_clients
        self.router: Optional[DisplayRouter] = None
        self.rng = random.Random(0)
        self.argv = CommandLines(seed)

    # -- setup -------------------------------------------------------------

    def setup(self, attempt: int, timer) -> None:
        self.close()
        self.argv = CommandLines(self.seed)
        self.router = DisplayRouter(
            shards=2, seed=self.seed, screens=(SCREEN,),
            store_dir=self.work.sub(f"session-{attempt}"),
        )
        for index in range(2 * self.shard_clients):
            self.router.place(self.argv.next())
            self.router.pump()
            if index % 16 == 15:
                timer.tick()
        self.rng = random.Random(derive_seed(self.seed, "session-ops"))
        self.check_clients("setup")

    def stack(self):
        """Servers, supervisors and routers a traced segment starts with."""
        shards = list(self.router.shards.values())
        return [s.server for s in shards], [s.sup for s in shards], [self.router]

    def close(self) -> None:
        if self.router is not None:
            self.router.close()
            self.router = None

    def drills(self) -> None:
        """Nothing to add: every §7 operation runs inside the loop."""

    # -- helpers -----------------------------------------------------------

    def _live(self) -> List[object]:
        return sorted(
            (r for r in self.router.clients.values() if r.shard_id is not None),
            key=lambda r: r.cid,
        )

    def _load(self, shard_id: int) -> int:
        return sum(1 for r in self.router.clients.values() if r.shard_id == shard_id)

    def _position(self, rec):
        """The client window's root position, read through the client's
        own connection (no Virtual Desktop here: root = desktop)."""
        conn = rec.app.conn
        x, y, _ = conn.translate_coordinates(rec.wid, conn.root_window(), 0, 0)
        return x, y

    # -- operations ----------------------------------------------------------

    def _admit(self, argv):
        rec = self.router.place(argv)
        if rec.shard_id is None:
            raise OperationFailed("admission deferred")
        return rec

    def do_admit(self) -> None:
        rec = self.rec.op("admit", self._admit, self.argv.next())
        if rec is not None:
            shard = self.router.shards[rec.shard_id]
            self.rec.expect(
                shard.wm is not None and rec.wid in shard.wm.managed,
                f"admit: client {rec.cid} not managed after placement",
            )

    def _action(self, kind, rec, rng_args) -> None:
        router = self.router
        shard = router.shards[rec.shard_id]
        wm = shard.wm
        managed = wm.managed.get(rec.wid)
        if managed is None:
            raise OperationFailed(f"client {rec.cid} is not managed")
        if kind == "move":
            fn, args = wm.move_managed_to, rng_args[:2]
        elif kind == "resize":
            fn, args = wm.resize_managed, rng_args[2:]
        elif kind == "iconify":
            fn = wm.deiconify if managed.state == ICONIC_STATE else wm.iconify
            args = ()
        elif kind == "stick":
            fn = wm.unstick if managed.sticky else wm.stick
            args = ()
        else:
            fn, args = wm.raise_managed, ()
        router.call(shard.id, shard.run, fn, managed, *args)
        router.pump()

    def do_action(self, kind: str) -> None:
        rng = self.rng
        rec = rng.choice(self._live())
        rng_args = (rng.randrange(0, 900), rng.randrange(0, 700),
                    rng.randrange(120, 500), rng.randrange(90, 400))
        self.rec.op(kind, self._action, kind, rec, rng_args)

    def do_migrate(self, target: Optional[int] = None) -> None:
        router = self.router
        if target is None:
            loads = {sid: self._load(sid) for sid in router.shards}
            if loads[0] == loads[1]:
                target = self.rng.randrange(2)
            else:
                target = min(loads, key=loads.get)
        sources = [r for r in self._live() if r.shard_id != target]
        rec = self.rng.choice(sources)
        before = self._position(rec)
        self.rec.op("migrate", router.migrate, rec.cid, target)
        self.rec.expect(
            rec.shard_id == target, f"migrate: client {rec.cid} not on shard {target}"
        )
        self.expect_position(rec, before)

    def expect_position(self, rec, before) -> bool:
        """A migrated client keeps the position it had on its source."""
        after = self._position(rec)
        return self.rec.expect(
            after == before,
            f"migrate: client {rec.cid} moved from {before} to {after}",
        )

    def _quit(self, rec) -> None:
        self.router.call(rec.shard_id, rec.app.quit)
        self.router.forget(rec.cid)
        self.router.pump()

    def do_quit(self) -> None:
        """Quit a client of the fuller shard, so loads stay within one
        of each other and every shard crash evacuates a full shard."""
        loads = {sid: self._load(sid) for sid in self.router.shards}
        source = max(loads, key=lambda sid: (loads[sid], self.rng.random()))
        rec = self.rng.choice([r for r in self._live() if r.shard_id == source])
        self.rec.op("quit", self._quit, rec)

    def _crash_wm(self, shard) -> None:
        wm = shard.wm
        managed = next(
            (m for m in wm.managed.values() if not m.is_internal), None
        )
        if managed is None:
            raise OperationFailed(f"shard {shard.id} manages no client")
        restarts = shard.sup.restarts
        shard.run(wm.raise_managed, managed)
        shard.pump()
        if shard.sup.restarts != restarts + 1:
            raise OperationFailed("the WM crash did not restart the WM")

    def do_recover(self, shard_id: int) -> None:
        shard = self.router.shards[shard_id]
        if shard.health != HEALTHY:
            return
        plan = FaultPlan(derive_seed(self.seed, f"wm-crash-{self.argv.count}"))
        plan.rule(CRASH, probability=1.0, max_fires=1,
                  clients=[shard.wm.conn.client_id])
        shard.server.install_faults(plan)
        self.rec.op("recover", self._crash_wm, shard)
        shard.server.clear_faults()
        self.check_clients(f"recover on shard {shard_id}")

    def _crash_shard(self, shard, rec) -> None:
        self.router.call(shard.id, rec.app.move_resize, 20, 20, 240, 180)
        if shard.health == HEALTHY:
            raise OperationFailed("the shard crash never fired")

    def do_failover(self, shard_id: int) -> None:
        router = self.router
        shard = router.shards[shard_id]
        residents = [r for r in self._live() if r.shard_id == shard_id]
        if shard.health != HEALTHY or not residents:
            return
        plan = FaultPlan(derive_seed(self.seed, f"shard-crash-{self.argv.count}"))
        plan.rule(SHARD_CRASH, probability=1.0, max_fires=1)
        shard.server.install_faults(plan)
        self.rec.op("failover", self._crash_shard, shard, residents[0])
        self.check_clients(f"failover of shard {shard_id}")
        # The fenced shard reboots on the router's recovery backoff;
        # live migrations then even the load out again.
        while shard.health != HEALTHY:
            self.rec.op("tick", router.pump)
        while abs(self._load(0) - self._load(1)) > 1:
            self.do_migrate()

    def round(self, index: int) -> None:
        """One round: 4 admissions, 16 dirty actions, 2 migrations,
        4 quits and one WM crash (alternating shards); every 4th round
        also a shard crash (from the first on), the shard's reboot and the rebalancing
        migrations."""
        for _ in range(ADMITS):
            self.do_admit()
        for kind in ACTIONS:
            self.do_action(kind)
        for _ in range(MIGRATES):
            self.do_migrate()
        for _ in range(QUITS):
            self.do_quit()
        self.do_recover(index % 2)
        if index % FAILOVER_EVERY == 0:
            self.do_failover((index // FAILOVER_EVERY) % 2)

    # -- checks --------------------------------------------------------------

    def check_clients(self, when: str) -> None:
        """No routed client is lost: each is alive and managed exactly
        once, on a healthy shard, and no shard manages a client the
        router does not route there."""
        router = self.router
        expected: Dict[int, set] = {sid: set() for sid in router.shards}
        for rec in router.clients.values():
            ok = rec.shard_id is not None and router.shards[rec.shard_id].health == HEALTHY
            self.rec.expect(ok, f"{when}: client {rec.cid} has no healthy shard")
            if ok:
                self.rec.expect(
                    rec.app.conn.is_alive(),
                    f"{when}: client {rec.cid} lost its connection",
                )
                expected[rec.shard_id].add(rec.wid)
        for sid, shard in router.shards.items():
            if shard.health != HEALTHY:
                continue
            managed = [m.client for m in shard.wm.managed.values() if not m.is_internal]
            self.rec.expect(
                sorted(managed) == sorted(expected[sid]),
                f"{when}: shard {sid} manages {len(managed)} clients,"
                f" routes {len(expected[sid])}",
            )

    def check_checkpoints(self) -> None:
        """After the debounce has run out, each healthy shard's newest
        checkpoint parses and lists exactly that shard's live clients."""
        router = self.router
        for _ in range(SETTLE_PUMPS):
            router.pump()
        for sid, shard in router.shards.items():
            if shard.health == HEALTHY:
                self.expect_checkpoint(sid, [r.command for r in router.clients.values()
                                             if r.shard_id == sid])

    def expect_checkpoint(self, shard_id: int, live: List[str]) -> bool:
        checkpoint = self.router.shards[shard_id].store.load()
        listed = (sorted(e.hints.command for e in parse_places(checkpoint.text))
                  if checkpoint is not None else [])
        return self.rec.expect(
            listed == sorted(live),
            f"checkpoint of shard {shard_id} lists {len(listed)} clients,"
            f" {len(live)} live",
        )

    def final_checks(self) -> None:
        self.check_clients("end of run")
        self.check_checkpoints()

    def metric_samples(self) -> Dict[str, List[int]]:
        samples = self.rec.samples
        return {
            "manage": samples.get("admit", []),
            "migrate": samples.get("migrate", []),
            "recover": samples.get("recover", []),
            "failover": samples.get("failover", []),
        }
