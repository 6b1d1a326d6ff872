"""``remote``: X clients speaking the TCP wire to a served swm.

Shaped like ``python -m repro serve --shards 2``: a two-shard
:class:`DisplayRouter` whose shard 0 runs swm with the OpenLook+
template (the WM ``serve`` runs) behind a :class:`WireServer` on a
loopback socket with heartbeats on, as by default.  At most two
:class:`TcpTransport` connections, both driven from this thread, each
connect, create and map a few windows, configure them, write and read
properties, query geometry and the tree, drain events and disconnect.
Windows are few, so codec, framing, socket, the asyncio loop and the
resilience bookkeeping sit on the critical path.

Everything that touches shard 0's server while the wire is up runs on
the wire's loop thread through :meth:`WireServer.call`.
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional

from repro import icccm, load_template
from repro.icccm.hints import NORMAL_STATE
from repro.session.router import DisplayRouter
from repro.xserver import ClientConnection, EventMask
from repro.xserver import events as ev
from repro.xserver.wire import ResilienceConfig, TcpTransport, WireServer, WireTimeouts

from drills import KINDS as DRILL_KINDS, run_drills, storeless_factory
from harness import Recorder, derive_seed

SCREEN = (1152, 900, 8)
#: Routed in-process clients the drills migrate and evacuate: the
#: programs are fixed, only their positions are seeded.
BACKGROUND = 4
BACKGROUND_PROGRAMS = ("xterm", "cmdtool", "xclock", "xload")
DRILL_ROUNDS = 16
#: Windows a connection creates and maps after each HELLO.
MAPS = 3
#: Wire knobs of ``serve``: its default --timeout and --heartbeat-interval.
TIMEOUT_S = 10.0
HEARTBEAT_S = 1.0
NOTE = "PERFBENCH_NOTE"

LOOP_KINDS = ["connect", "create", "map", "configure", "prop_write",
              "prop_read", "get_geometry", "query_tree", "drain", "disconnect"]


class Slot:
    """One client connection and what the benchmark last told it."""

    def __init__(self, index: int) -> None:
        self.index = index
        self.conn: Optional[ClientConnection] = None
        #: wid -> last requested (x, y, width, height)
        self.geometry: Dict[int, tuple] = {}
        #: wid -> last written NOTE value
        self.notes: Dict[int, str] = {}
        #: wid -> last ConfigureNotify seen (x, y, width, height)
        self.confirmed: Dict[int, tuple] = {}
        #: wid -> frame swm reparented it into
        self.frames: Dict[int, int] = {}


class RemoteBench:
    """Setup, timed loop, drills and checks of the ``remote`` workload."""

    name = "remote"
    loop_kinds = LOOP_KINDS

    def __init__(self, seed: int, work, recorder: Recorder,
                 background: int = BACKGROUND) -> None:
        self.seed = seed
        self.work = work
        self.rec = recorder
        self.background = background
        self.router: Optional[DisplayRouter] = None
        self.ws: Optional[WireServer] = None
        self.slots = [Slot(0), Slot(1)]
        self.connects = 0

    # -- setup -------------------------------------------------------------

    def setup(self, attempt: int, timer) -> None:
        self.close()
        store = self.work.sub(f"remote-{attempt}")
        self.router = DisplayRouter(
            shards=2, seed=self.seed, store_dir=store, screens=(SCREEN,),
            wm_factory=storeless_factory(load_template("OpenLook+"),
                                         f"{store}/swm.places"),
        )
        rng = random.Random(derive_seed(self.seed, "remote-background"))
        for index in range(self.background):
            program = BACKGROUND_PROGRAMS[index % len(BACKGROUND_PROGRAMS)]
            x, y = str(rng.randrange(0, 900)), str(rng.randrange(0, 700))
            self.router.place([program, "-Wp", x, y, "-Wl", f"b{index}"]
                              if program == "cmdtool" else
                              [program, "-geometry", f"+{x}+{y}", "-title", f"b{index}"])
            self.router.pump()
        self.ws = WireServer(
            self.router.shards[0].server,
            timeouts=WireTimeouts.uniform(TIMEOUT_S),
            resilience=ResilienceConfig(heartbeat_interval=HEARTBEAT_S),
        )
        self.ws.start()
        self.rng = random.Random(derive_seed(self.seed, "remote-ops"))
        self.slots = [Slot(0), Slot(1)]

    def stack(self):
        """Servers, supervisors and routers a traced segment starts with."""
        shards = list(self.router.shards.values())
        return [s.server for s in shards], [s.sup for s in shards], [self.router]

    def close(self) -> None:
        for slot in self.slots:
            if slot.conn is not None:
                slot.conn.close()
                slot.conn = None
        if self.ws is not None:
            self.ws.stop()
            errors = self.ws.errors
            self.rec.expect(not errors, f"wire loop errors: {errors}")
            self.ws = None
        if self.router is not None:
            self.router.close()
            self.router = None

    # -- operations ----------------------------------------------------------

    def _connect(self, slot: Slot) -> None:
        self.connects += 1
        transport = TcpTransport(
            port=self.ws.port,
            timeouts=WireTimeouts.uniform(TIMEOUT_S),
            resilience=ResilienceConfig(
                heartbeat_interval=HEARTBEAT_S,
                seed=derive_seed(self.seed, f"client-{self.connects}"),
            ),
        )
        slot.conn = ClientConnection(name=f"remote-{slot.index}", transport=transport)

    def _create(self, conn, root, x, y, width, height) -> int:
        wid = conn.create_window(root, x, y, width, height)
        conn.select_input(wid, EventMask.StructureNotify)
        icccm.set_wm_name(conn, wid, f"remote-{wid:#x}")
        return wid

    def _map(self, conn, wid) -> None:
        conn.map_window(wid)

    def do_connect_and_map(self, slot: Slot) -> None:
        rng = self.rng
        self.rec.op("connect", self._connect, slot)
        if slot.conn is None:
            return
        conn = slot.conn
        root = conn.root_window()
        for _ in range(MAPS):
            geometry = (rng.randrange(0, 800), rng.randrange(0, 600),
                        rng.randrange(80, 400), rng.randrange(60, 300))
            wid = self.rec.op("create", self._create, conn, root, *geometry)
            if wid is None:
                continue
            self.rec.op("map", self._map, conn, wid)
            slot.geometry[wid] = geometry
            self.check_managed(slot, wid)

    def _disconnect(self, slot: Slot) -> None:
        slot.conn.close()

    def do_disconnect(self, slot: Slot) -> None:
        self.rec.op("disconnect", self._disconnect, slot)
        slot.conn = None
        slot.geometry.clear()
        slot.notes.clear()
        slot.confirmed.clear()
        slot.frames.clear()

    def _pick(self):
        slot = self.rng.choice([s for s in self.slots if s.geometry])
        return slot, self.rng.choice(sorted(slot.geometry))

    def do_configure(self) -> None:
        rng = self.rng
        slot, wid = self._pick()
        geometry = (rng.randrange(0, 800), rng.randrange(0, 600),
                    rng.randrange(80, 400), rng.randrange(60, 300))
        x, y, width, height = geometry
        self.rec.op("configure", slot.conn.configure_window, wid,
                    x=x, y=y, width=width, height=height)
        slot.geometry[wid] = geometry

    def do_prop_write(self) -> None:
        slot, wid = self._pick()
        value = f"note-{self.rng.randrange(10**9)}"
        self.rec.op("prop_write", slot.conn.set_string_property, wid, NOTE, value)
        slot.notes[wid] = value

    def do_prop_read(self) -> None:
        slot, wid = self._pick()
        value = self.rec.op("prop_read", slot.conn.get_string_property, wid, NOTE)
        self.expect_note(slot, wid, value)

    def expect_note(self, slot: Slot, wid: int, value) -> bool:
        return self.rec.expect(
            value == slot.notes.get(wid),
            f"prop_read {wid:#x}: read {value!r}, last wrote {slot.notes.get(wid)!r}",
        )

    def do_get_geometry(self) -> None:
        slot, wid = self._pick()
        got = self.rec.op("get_geometry", slot.conn.get_geometry, wid)
        self.expect_size(slot, wid, got)

    def expect_size(self, slot: Slot, wid: int, got) -> bool:
        want = slot.geometry[wid][2:]
        return self.rec.expect(
            got is not None and tuple(got[2:4]) == want,
            f"get_geometry {wid:#x}: size {got and got[2:4]}, configured {want}",
        )

    def do_query_tree(self) -> None:
        slot = self.rng.choice([s for s in self.slots if s.conn is not None])
        tree = self.rec.op("query_tree", slot.conn.query_tree, slot.conn.root_window())
        if tree is not None:
            self.check_tree(tree[2])

    def do_drain(self) -> None:
        slot = self.rng.choice([s for s in self.slots if s.conn is not None])
        events = self.rec.op("drain", slot.conn.flush_events)
        for event in events or ():
            if isinstance(event, ev.ConfigureNotify) and event.send_event:
                slot.confirmed[event.window] = (
                    event.x, event.y, event.width, event.height
                )
        self.check_confirmed(slot)

    def check_confirmed(self, slot: Slot) -> None:
        """The WM's last ConfigureNotify for each window confirms the
        geometry the benchmark last requested."""
        for wid, want in slot.geometry.items():
            got = slot.confirmed.get(wid)
            self.rec.expect(
                got is None or got == want,
                f"ConfigureNotify {wid:#x}: {got}, configured {want}",
            )

    def round(self, index: int) -> None:
        """One round: the older connection disconnects, reconnects
        (HELLO) and creates and maps 3 windows; then 8 configures,
        8 property writes, 8 property reads, 6 get_geometry, 2
        query_tree and 2 event drains over both connections' windows."""
        slot = self.slots[index % 2]
        if slot.conn is not None:
            self.do_disconnect(slot)
        self.do_connect_and_map(slot)
        for step in range(8):
            self.do_configure()
            self.do_prop_write()
            self.do_prop_read()
            if step % 4 == 3:
                self.do_drain()
            if step < 6:
                self.do_get_geometry()
            if step % 4 == 1:
                self.do_query_tree()

    # -- checks ----------------------------------------------------------------

    def check_managed(self, slot: Slot, wid: int) -> None:
        """A mapped window is reparented into a frame and carries
        WM_STATE Normal."""
        conn = slot.conn
        root = conn.root_window()
        parent = conn.query_tree(wid)[1]
        self.rec.expect(parent != root, f"map: {wid:#x} was not reparented")
        slot.frames[wid] = self._top_level(conn, wid)
        state = icccm.get_wm_state(conn, wid)
        self.rec.expect(
            state is not None and state.state == NORMAL_STATE,
            f"map: {wid:#x} WM_STATE is {state}",
        )

    @staticmethod
    def _top_level(conn, wid: int) -> int:
        """The root child that holds *wid* (its frame once managed)."""
        root = conn.root_window()
        while True:
            parent = conn.query_tree(wid)[1]
            if parent == root:
                return wid
            wid = parent

    def check_tree(self, children: List[int]) -> None:
        """query_tree(root) lists the frame of every live window."""
        listed = set(children)
        for slot in self.slots:
            for wid, frame in slot.frames.items():
                self.rec.expect(
                    frame in listed, f"query_tree: frame of {wid:#x} missing"
                )

    def final_checks(self) -> None:
        for slot in self.slots:
            if slot.conn is None:
                continue
            for wid in list(slot.geometry):
                self.check_managed(slot, wid)
            tree = slot.conn.query_tree(slot.conn.root_window())
            self.check_tree(tree[2])

    # -- drills ------------------------------------------------------------------

    def drills(self) -> None:
        """The §7 drills (see drills.py) on the served stack, with both
        remote clients still connected, run on the wire's loop thread;
        afterwards every remote window must be managed again."""
        run_drills(self.rec, self.router, self.seed, DRILL_ROUNDS, self.ws.call)
        for slot in self.slots:
            for wid in slot.geometry:
                slot.frames[wid] = self._top_level(slot.conn, wid)

    def metric_samples(self) -> Dict[str, List[int]]:
        samples = self.rec.samples
        return {"manage": samples.get("map", []),
                **{kind: samples.get(kind, []) for kind in DRILL_KINDS}}
