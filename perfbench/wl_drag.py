"""``drag``: one crowded swm desktop under interactive pointer work.

One in-process swm runs with the OpenLook+ template, a 3x3-screen
Virtual Desktop, the panner and ``opaqueMove``, managing several
hundred decorated top-levels from a seeded mix of canned clients.
There is no session store, router or wire in the timed loop, so every
millisecond goes to per-configure tree work: stacking index, pointer
refresh, damage/Expose and panner miniatures.

Every run reports every end-to-end metric, so after the loop the
§7 drills (see drills.py) run on two spare screens beside the desktop:
a two-shard router with the same WM configuration and a handful of
routed clients.  The crowded desktop itself takes no part: adopting or
evacuating onto it costs between one and five seconds depending on the
seeded layout (see CHANGES.md), a spread no bound could hold.
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional, Tuple

from repro import Swm, XServer, load_template
from repro.clients import launch_command
from repro.session.router import DisplayRouter
from repro.xserver import ClientConnection

from drills import KINDS as DRILL_KINDS, run_drills, storeless_factory
from harness import Recorder, derive_seed

SCREEN = (1152, 900, 8)
VDESK = (3456, 2700)
#: Top-level clients on the crowded desktop.  The server's per-client
#: quota of 2048 windows covers swm's own decoration windows (about
#: eight per OpenLook+ frame), so past ~250 clients swm can no longer
#: decorate a newcomer and leaves it unmanaged (see CHANGES.md).
WINDOWS = 240
#: Routed clients on the spare screens, and drill rounds.
DRILL_CLIENTS = 8
DRILL_ROUNDS = 12
#: Motion events in one drag and in one sweep.
DRAG_STEPS = 12
SWEEP_STEPS = 16
#: Pointer paths stay in this screen area: clear of the panner, which
#: swm puts in the bottom-right corner, so a drop is a plain move.
SAFE = (20, 20, 880, 680)

#: (argv[0], weight): xterm and cmdtool dominate like a real desk;
#: oclock and xeyes bring SHAPE-d frames into every hit test.  xclock
#: and xbiff stay out: OpenLook+ makes them sticky, which puts their
#: frames on the root in screen coordinates, and one that happened to
#: cover the pointer spared every later map the desktop's pointer
#: refresh, so set-up cost flipped by 2x between seeds.  Without them
#: every seed pays that refresh.
PROGRAMS = (
    ("xterm", 34), ("cmdtool", 14), ("xload", 14), ("xlogo", 12),
    ("oclock", 10), ("xeyes", 5), ("oidemo", 6), ("naivedemo", 5),
)

LOOP_KINDS = ["drag", "configure", "raise", "lower", "sweep", "quit", "admit", "pan"]


def population(rng: random.Random, count: int) -> List[str]:
    """argv[0] of every desktop client: the PROGRAMS weights as exact
    counts, in seeded order, so every seed builds the same mix."""
    total = sum(w for _, w in PROGRAMS)
    names = [p for p, w in PROGRAMS for _ in range(count * w // total)]
    names += [PROGRAMS[0][0]] * (count - len(names))
    rng.shuffle(names)
    return names


def client_argv(rng: random.Random, index: int, program: str) -> List[str]:
    """One seeded command line in the program's own dialect; four in
    five carry a user position somewhere on the Virtual Desktop."""
    x = rng.randrange(0, VDESK[0] - 500)
    y = rng.randrange(0, VDESK[1] - 400)
    positioned = rng.random() < 0.8
    if program == "cmdtool":
        argv = [program, "-Ws", str(rng.randrange(300, 640)),
                str(rng.randrange(200, 420)), "-Wl", f"d{index}"]
        return argv + (["-Wp", str(x), str(y)] if positioned else [])
    argv = [program, "-title", f"d{index}"]
    return argv + (["-geometry", f"+{x}+{y}"] if positioned else [])


def drag_db():
    db = load_template("OpenLook+")
    db.put("swm*virtualDesktop", f"{VDESK[0]}x{VDESK[1]}")
    db.put("swm*opaqueMove", "True")
    db.put("swm*panner", "True")
    return db


class DragBench:
    """Setup, timed loop, drills and checks of the ``drag`` workload."""

    name = "drag"
    loop_kinds = LOOP_KINDS

    def __init__(self, seed: int, work, recorder: Recorder,
                 windows: int = WINDOWS) -> None:
        self.seed = seed
        self.work = work
        self.rec = recorder
        self.windows = windows
        self.rng = random.Random(derive_seed(seed, "drag-ops"))
        self.apps: List[object] = []

    # -- setup -------------------------------------------------------------

    def setup(self, attempt: int, timer) -> None:
        """Boot the server and swm and fill the desktop.  Every attempt
        builds the same desktop from the same seed."""
        self.close()
        rng = random.Random(derive_seed(self.seed, "drag-clients"))
        self.server = XServer(screens=[SCREEN])
        self.wm = Swm(self.server, drag_db(),
                      places_path=f"{self.work.sub('drag')}/swm.places")
        self.check_conn = ClientConnection(self.server, "perfbench-check")
        self.root = self.check_conn.root_window()
        self.apps = []
        for index, program in enumerate(population(rng, self.windows)):
            self.apps.append(self._admit(client_argv(rng, index, program)))
            if index % 32 == 31:
                timer.tick()
        self.rng = random.Random(derive_seed(self.seed, "drag-ops"))
        self.churn = (random.Random(derive_seed(self.seed, "drag-churn")),
                      population(rng, self.windows))
        self.rec.expect(
            all(app.wid in self.wm.managed for app in self.apps),
            "drag setup: a client was left unmanaged",
        )

    def _admit(self, argv):
        app = launch_command(self.server, argv)
        self.wm.process_pending()
        return app

    def stack(self):
        """Servers, supervisors and routers a traced segment starts with."""
        return [self.server], [], []

    def close(self) -> None:
        """Nothing outlives a run but on-disk state, which the work
        directory removes."""

    # -- helpers -----------------------------------------------------------

    def _vdesk(self) -> int:
        return self.wm.screens[0].vdesk.window

    def _in_view(self) -> List[object]:
        """Managed desktop clients, from a seeded sample of 40, whose
        frame overlaps the screen."""
        vx, vy, _, _, _ = self.check_conn.get_geometry(self._vdesk())
        out = []
        for app in self.rng.sample(self.apps, min(40, len(self.apps))):
            managed = self.wm.managed.get(app.wid)
            if managed is None:
                continue
            x, y, w, h, _ = self.check_conn.get_geometry(managed.frame)
            if (x + vx < SCREEN[0] and x + vx + w > 0
                    and y + vy < SCREEN[1] and y + vy + h > 0):
                out.append(managed)
        return out

    def _pump(self) -> None:
        self.wm.process_pending()

    # -- operations ----------------------------------------------------------

    def _drag(self, managed, start: Tuple[int, int], end: Tuple[int, int]):
        server = self.server
        server.motion(*start)
        self._pump()
        self.wm.begin_move(managed, start)
        for step in range(1, DRAG_STEPS + 1):
            server.motion(
                start[0] + (end[0] - start[0]) * step // DRAG_STEPS,
                start[1] + (end[1] - start[1]) * step // DRAG_STEPS,
            )
            self._pump()
        server.button_release(2)
        self._pump()

    def do_drag(self) -> None:
        rng = self.rng
        candidates = self._in_view() or [
            self.wm.managed[app.wid] for app in self.apps
        ]
        managed = rng.choice(candidates)
        x0, y0, _, _, _ = self.check_conn.get_geometry(managed.frame)
        start = (rng.randrange(SAFE[0], SAFE[2]), rng.randrange(SAFE[1], SAFE[3]))
        # A random walk reflected at the desktop's edges: the layout's
        # density stays the same however many rounds a run gets.
        dx = rng.choice((-1, 1)) * rng.randrange(40, 400)
        dy = rng.choice((-1, 1)) * rng.randrange(40, 300)
        if not 0 <= x0 + dx <= VDESK[0] - 500:
            dx = -dx
        if not 0 <= y0 + dy <= VDESK[1] - 400:
            dy = -dy
        end = (min(max(start[0] + dx, SAFE[0]), SAFE[2]),
               min(max(start[1] + dy, SAFE[1]), SAFE[3]))
        self.rec.op("drag", self._drag, managed, start, end)
        self.expect_frame_at(managed, (x0 + end[0] - start[0], y0 + end[1] - start[1]))

    def _configure(self, app, x, y, width, height) -> None:
        if width is None:
            app.conn.move_window(app.wid, x, y)
        else:
            app.conn.move_resize_window(app.wid, x, y, width, height)
        self._pump()

    def do_configure(self, resize: bool) -> None:
        rng = self.rng
        app = rng.choice(self.apps)
        x = rng.randrange(0, VDESK[0] - 600)
        y = rng.randrange(0, VDESK[1] - 450)
        size = (rng.randrange(120, 600), rng.randrange(80, 450)) if resize else (None, None)
        self.rec.op("configure", self._configure, app, x, y, *size)

    def _restack(self, managed, up: bool) -> None:
        if up:
            self.wm.raise_managed(managed)
        else:
            self.wm.lower_managed(managed)
        self._pump()

    def do_restack(self, up: bool) -> None:
        managed = self.wm.managed[self.rng.choice(self.apps).wid]
        self.rec.op("raise" if up else "lower", self._restack, managed, up)

    def _sweep(self, points) -> None:
        for x, y in points:
            self.server.motion(x, y)
            self._pump()

    def do_sweep(self) -> None:
        rng = self.rng
        points = [
            (rng.randrange(0, SCREEN[0]), rng.randrange(0, SCREEN[1]))
            for _ in range(SWEEP_STEPS)
        ]
        self.rec.op("sweep", self._sweep, points)
        self.check_hit_test()

    def _quit(self, app) -> None:
        app.quit()
        self._pump()

    def do_churn(self, index: int) -> None:
        """One client quits and a new one starts, so the desktop stays
        full; the start is the workload's manage sample."""
        rng, programs = self.churn
        leaving = self.apps.pop(rng.randrange(len(self.apps)))
        self.rec.op("quit", self._quit, leaving)
        program = programs[index % len(programs)]
        app = self.rec.op("admit", self._admit,
                          client_argv(rng, self.windows + index, program))
        if app is not None:
            self.apps.append(app)
            self.rec.expect(app.wid in self.wm.managed,
                            f"admit: {app.argv} not managed")

    def _pan(self, x, y) -> None:
        self.wm.pan_to(0, x, y)
        self._pump()

    def do_pan(self) -> None:
        rng = self.rng
        self.rec.op(
            "pan", self._pan,
            rng.randrange(0, VDESK[0] - SCREEN[0]),
            rng.randrange(0, VDESK[1] - SCREEN[1]),
        )

    def round(self, index: int) -> None:
        """One round: 2 drags, 6 client configures (2 with a resize),
        2 raises, 2 lowers, 2 pointer sweeps; a client quit and a client
        start every 2nd round from the first, a pan every 4th."""
        self.do_drag()
        for n in range(6):
            self.do_configure(resize=n % 3 == 2)
        self.do_restack(True)
        self.do_sweep()
        self.do_restack(False)
        self.do_drag()
        self.do_restack(True)
        self.do_restack(False)
        self.do_sweep()
        if index % 2 == 0:
            self.do_churn(index)
        if index % 4 == 3:
            self.do_pan()

    # -- checks --------------------------------------------------------------

    def brute_force_child(self, parent: int, px: int, py: int) -> int:
        """Topmost mapped child of *parent* under root point (px, py),
        from query_tree order and get_geometry alone (X semantics: a
        child's x, y place its outer corner inside the parent's border),
        honouring SHAPE masks; 0 when none."""
        conn = self.check_conn
        ox, oy = self._inside_origin(parent)
        for child in reversed(conn.query_tree(parent)[2]):
            if conn.get_window_attributes(child)["map_state"] == 0:
                continue
            x, y, w, h, bw = conn.get_geometry(child)
            left, top = ox + x, oy + y
            if not (left <= px < left + w + 2 * bw and top <= py < top + h + 2 * bw):
                continue
            shape = self.server.shape_query(child)
            if shape is not None:
                lx = px - (left + bw) - shape.x_offset
                ly = py - (top + bw) - shape.y_offset
                mask = shape.mask
                if not (0 <= lx < mask.width and 0 <= ly < mask.height
                        and mask.rows[ly][lx]):
                    continue
            return child
        return 0

    def _inside_origin(self, wid: int) -> Tuple[int, int]:
        conn = self.check_conn
        x = y = 0
        while wid != self.root:
            wx, wy, _, _, bw = conn.get_geometry(wid)
            x += wx + bw
            y += wy + bw
            wid = conn.query_tree(wid)[1]
        return x, y

    def expect_frame_at(self, managed, expected: Tuple[int, int]) -> bool:
        """After a drag the frame sits at its start plus the pointer
        delta the benchmark sent."""
        x, y, _, _, _ = self.check_conn.get_geometry(managed.frame)
        return self.rec.expect(
            (x, y) == expected,
            f"drag: frame {managed.frame:#x} at {(x, y)}, expected {expected}",
        )

    def check_hit_test(self, reported: Optional[int] = None) -> None:
        """query_pointer's top-level (and, over the Virtual Desktop, the
        frame under it) against the brute-force topmost hit.  A test
        passes *reported* to stand in for query_pointer's frame."""
        conn = self.check_conn
        pointer = conn.query_pointer(self.root)
        px, py = pointer["root_x"], pointer["root_y"]
        want = self.brute_force_child(self.root, px, py)
        self.rec.expect(
            pointer["child"] == want,
            f"hit test at {(px, py)}: query_pointer {pointer['child']:#x},"
            f" brute force {want:#x}",
        )
        vdesk = self._vdesk()
        if want == vdesk:
            got = conn.query_pointer(vdesk)["child"] if reported is None else reported
            frame = self.brute_force_child(vdesk, px, py)
            self.rec.expect(
                got == frame,
                f"hit test at {(px, py)} on the desktop: query_pointer"
                f" {got:#x}, brute force {frame:#x}",
            )

    def check_population(self) -> None:
        """Every desktop client is still managed at the end."""
        wm = self.wm
        for app in self.apps:
            self.rec.expect(
                app.wid in wm.managed,
                f"desktop client {app.wid:#x} not managed at the end",
            )

    # -- drills ----------------------------------------------------------------

    def drills(self) -> None:
        """The §7 drills on two spare screens beside the desktop."""
        rng = random.Random(derive_seed(self.seed, "drag-drills"))
        spares = DisplayRouter(
            shards=2, seed=self.seed, screens=(SCREEN,),
            store_dir=self.work.sub("drag-spares"),
            wm_factory=storeless_factory(
                drag_db(), f"{self.work.sub('drag-spares')}/swm.places"),
        )
        try:
            for index, program in enumerate(population(rng, DRILL_CLIENTS)):
                spares.place(client_argv(rng, 1000 + index, program))
            run_drills(self.rec, spares, self.seed, DRILL_ROUNDS, _direct)
        finally:
            spares.close()

    def final_checks(self) -> None:
        self.check_population()

    def metric_samples(self) -> Dict[str, List[int]]:
        samples = self.rec.samples
        return {"manage": samples.get("admit", []),
                **{kind: samples.get(kind, []) for kind in DRILL_KINDS}}


def _direct(fn, *args):
    return fn(*args)
