"""The benchmark's own tests: each workload end to end at a tiny size,
and each correctness check firing when its expectation is wrong.

    python -m pytest perfbench/tests -q
"""

import io
import json
import os
import shutil
import subprocess
import sys
from argparse import Namespace

import pytest

import run
from harness import Recorder, SetupTimer, WorkDir
from repro.xserver.shard import HEALTHY
from wl_drag import DragBench
from wl_remote import RemoteBench
from wl_session import SessionBench

BENCHMARK = os.path.join(os.path.dirname(run.HERE), "BENCHMARK.json")


def declared(section):
    with open(BENCHMARK, encoding="utf-8") as handle:
        return {m["name"]: m["unit"] for m in json.load(handle)[section]}


@pytest.mark.parametrize("workload", ["drag", "session", "remote"])
@pytest.mark.parametrize("trace", [0, 1])
def test_tiny_run_end_to_end(tmp_path, workload, trace):
    opts = Namespace(workload=workload, seed=7, seconds=0.3, trace=trace,
                     spans_out=str(tmp_path / "spans.json"))
    out = io.StringIO()
    result = run.run(opts, small=True, out=out, root=str(tmp_path))
    assert json.loads(out.getvalue().strip().splitlines()[-1]) == result
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"], out.getvalue()
    assert result["failed"] == 0 and result["attempted"] > 0
    want = declared("per_layer" if trace else "end_to_end")
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())
    else:
        assert os.path.getsize(opts.spans_out) > 0
    assert not os.path.exists(tmp_path / ".perfbench_work")


def test_missing_program_exits_nonzero_without_result(tmp_path):
    """A checkout holding only the benchmark has no program to run."""
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(BENCHMARK, tmp_path / "BENCHMARK.json")
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "drag", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
        env={"PATH": os.environ.get("PATH", "")},
    )
    assert done.returncode != 0
    assert "{" not in done.stdout


# -- the checks fire -----------------------------------------------------------


@pytest.fixture
def work(tmp_path):
    work = WorkDir(str(tmp_path), "test")
    yield work
    work.close()


def test_drag_checks_fire(work):
    rec = Recorder()
    bench = DragBench(3, work, rec, windows=12)
    try:
        bench.setup(0, SetupTimer())
        bench.do_drag()
        assert rec.problems == []
        managed = bench.wm.managed[bench.apps[0].wid]
        x, y, _, _, _ = bench.check_conn.get_geometry(managed.frame)
        assert bench.expect_frame_at(managed, (x, y))
        assert not bench.expect_frame_at(managed, (x + 1, y))
        # Point at the middle of a raised frame on the desktop, then
        # fabricate query_pointer's answer.
        bench.wm.pan_to(0, 0, 0)
        bench.wm.move_managed_to(managed, 100, 100)
        bench.wm.raise_managed(managed)
        bench.server.motion(150, 150)
        bench.wm.process_pending()
        before = len(rec.problems)
        bench.check_hit_test()
        assert len(rec.problems) == before
        bench.check_hit_test(reported=bench.wm.managed[bench.apps[1].wid].frame)
        assert len(rec.problems) == before + 1
    finally:
        bench.close()


def test_session_checks_fire(work):
    rec = Recorder()
    bench = SessionBench(5, work, rec, shard_clients=3)
    try:
        bench.setup(0, SetupTimer())
        bench.do_migrate()
        assert rec.problems == []
        moved = bench._live()[0]
        x, y = bench._position(moved)
        assert bench.expect_position(moved, (x, y))
        assert not bench.expect_position(moved, (x, y + 1))
        bench.check_checkpoints()
        assert len(rec.problems) == 1
        live = [r.command for r in bench.router.clients.values() if r.shard_id == 0]
        assert not bench.expect_checkpoint(0, live + ["xterm -title ghost"])
        # A client dying behind the router's back is a lost client.
        victim = next(r for r in bench._live() if r.shard_id == 1)
        assert bench.router.shards[1].health == HEALTHY
        victim.app.quit()
        bench.router.pump()
        before = len(rec.problems)
        bench.check_clients("test")
        assert len(rec.problems) > before
    finally:
        bench.close()


def test_remote_checks_fire(work):
    rec = Recorder()
    bench = RemoteBench(9, work, rec, background=2)
    try:
        bench.setup(0, SetupTimer())
        slot = bench.slots[0]
        bench.do_connect_and_map(slot)
        bench.do_configure()
        bench.do_prop_write()
        bench.do_drain()
        assert rec.problems == []
        wid = next(iter(slot.notes))
        assert bench.expect_note(slot, wid, slot.notes[wid])
        assert not bench.expect_note(slot, wid, slot.notes[wid] + "x")
        got = slot.conn.get_geometry(wid)
        assert bench.expect_size(slot, wid, got)
        assert not bench.expect_size(slot, wid, got[:2] + (got[2] + 1, got[3], got[4]))
        x, y, width, height = slot.geometry[wid]
        slot.confirmed[wid] = (x, y, width, height + 1)
        before = len(rec.problems)
        bench.check_confirmed(slot)
        assert len(rec.problems) == before + 1
        # A window that was never mapped is not managed.
        stray = slot.conn.create_window(slot.conn.root_window(), 5, 5, 50, 50)
        before = len(rec.problems)
        bench.check_managed(slot, stray)
        assert len(rec.problems) == before + 2
        before = len(rec.problems)
        bench.check_tree([])
        assert len(rec.problems) > before
    finally:
        bench.close()
