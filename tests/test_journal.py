"""Tests for the write-ahead journal, chaos injector and supervisor.

The tentpole property lives in ``TestKillAtRandomOffset``: a durable
session killed at a hypothesis-chosen crash site recovers (snapshot +
journal replay) and finishes event-for-event identical to the
uninterrupted run — including across journal rotations (compaction
boundaries) and from legacy ``repro-session/2`` snapshots that predate
``applied_seq``.
"""

import json
import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.conformance.fuzz import (
    drive_session_with_crashes,
    portable_events,
    service_specs,
)
from repro.core.list_scheduler import fifo_priority, list_schedule
from repro.experiments.workloads import random_instance
from repro.registry import get_scheduler
from repro.resources.pool import ResourcePool
from repro.service.chaos import CRASH_POINTS, ChaosCrash, ChaosInjector
from repro.service.checkpoint import checkpoint_session
from repro.service.journal import (
    JOURNAL_FORMAT,
    Journal,
    JournaledSession,
    scan_journal,
)
from repro.service.session import JobSpec, SchedulingSession
from repro.service.supervisor import RESTARTS_ENV, BackoffPolicy, supervise
from repro.util.atomic import atomic_write_text


def _specs(n=4, d=2):
    return [
        JobSpec(f"j{i}", tuple([1] * d), float(i + 1), key=i) for i in range(n)
    ]


class TestScanJournal:
    def test_empty_file(self, tmp_path):
        p = tmp_path / "j.jsonl"
        p.write_text("")
        header, records, valid = scan_journal(str(p))
        assert header is None and records == [] and valid == 0

    def test_header_and_records(self, tmp_path):
        p = tmp_path / "j.jsonl"
        p.write_text(
            '{"format": "repro-journal/1", "base_seq": 2}\n'
            '{"seq": 3, "op": "drain"}\n'
            '{"seq": 4, "op": "prune"}\n'
        )
        header, records, valid = scan_journal(str(p))
        assert header["base_seq"] == 2
        assert [r["seq"] for r in records] == [3, 4]
        assert valid == p.stat().st_size

    def test_torn_tail_is_dropped_not_fatal(self, tmp_path):
        p = tmp_path / "j.jsonl"
        good = '{"format": "repro-journal/1", "base_seq": 0}\n{"seq": 1, "op": "drain"}\n'
        p.write_text(good + '{"seq": 2, "op": "dr')
        header, records, valid = scan_journal(str(p))
        assert [r["seq"] for r in records] == [1]
        assert valid == len(good.encode())

    def test_corruption_before_tail_is_fatal(self, tmp_path):
        p = tmp_path / "j.jsonl"
        p.write_text(
            '{"format": "repro-journal/1", "base_seq": 0}\n'
            "not json at all\n"
            '{"seq": 2, "op": "drain"}\n'
        )
        with pytest.raises(ValueError, match="not JSON"):
            scan_journal(str(p))

    def test_non_monotonic_seq_is_fatal(self, tmp_path):
        p = tmp_path / "j.jsonl"
        p.write_text(
            '{"format": "repro-journal/1", "base_seq": 0}\n'
            '{"seq": 2, "op": "drain"}\n'
            '{"seq": 2, "op": "drain"}\n'
        )
        with pytest.raises(ValueError, match="does not increase"):
            scan_journal(str(p))

    def test_unknown_format_is_fatal(self, tmp_path):
        p = tmp_path / "j.jsonl"
        p.write_text('{"format": "repro-journal/99"}\n')
        with pytest.raises(ValueError, match="unsupported format"):
            scan_journal(str(p))


class TestJournal:
    def test_append_truncates_preexisting_torn_tail(self, tmp_path):
        p = tmp_path / "j.jsonl"
        j = Journal(str(p), fsync=False)
        j.append({"seq": 1, "op": "drain"})
        j.close()
        with open(p, "a") as fh:
            fh.write('{"seq": 2, "op": "dr')  # crash mid-append
        j2 = Journal(str(p), fsync=False)
        j2.append({"seq": 2, "op": "prune"})
        j2.close()
        _, records, _ = scan_journal(str(p))
        assert [(r["seq"], r["op"]) for r in records] == [(1, "drain"), (2, "prune")]

    def test_rotate_resets_to_fresh_header(self, tmp_path):
        p = tmp_path / "j.jsonl"
        j = Journal(str(p), fsync=False)
        for seq in (1, 2, 3):
            j.append({"seq": seq, "op": "drain"})
        j.rotate(3)
        assert j.appended == 0
        header, records, _ = scan_journal(str(p))
        assert header == {"format": JOURNAL_FORMAT, "base_seq": 3}
        assert records == []
        j.append({"seq": 4, "op": "drain"})
        j.close()
        _, records, _ = scan_journal(str(p))
        assert [r["seq"] for r in records] == [4]


class TestJournaledSession:
    def _js(self, tmp_path, **kw):
        return JournaledSession.recover(
            str(tmp_path / "j.jsonl"),
            str(tmp_path / "snap.json"),
            capacities=[4, 4],
            fsync=False,
            **kw,
        )

    def test_verbs_append_records(self, tmp_path):
        js = self._js(tmp_path)
        js.submit(_specs())
        js.cancel("j3")
        js.advance(1.5, events=False)
        js.drain()
        js.close()
        _, records, _ = scan_journal(str(tmp_path / "j.jsonl"))
        assert [r["op"] for r in records] == ["submit", "cancel", "advance", "drain"]
        assert [r["seq"] for r in records] == [1, 2, 3, 4]
        assert all("rng" in r for r in records)

    @pytest.mark.parametrize("until", (float("nan"), float("inf")))
    def test_refused_advance_journals_nothing(self, tmp_path, until):
        js = self._js(tmp_path)
        js.submit(_specs())
        with pytest.raises(ValueError, match="non-finite"):
            js.advance(until, events=False)
        js.advance(1.5, events=False)
        js.close()
        _, records, _ = scan_journal(str(tmp_path / "j.jsonl"))
        assert [r["op"] for r in records] == ["submit", "advance"]
        assert records[1]["until"] == 1.5 and records[1]["seq"] == 2

    def test_refused_overflowing_submit_journals_nothing(self, tmp_path):
        js = self._js(tmp_path)
        js.submit(_specs())
        with pytest.raises(ValueError, match="leaves the float64 range"):
            js.submit([JobSpec("x", (4, 4), 1e308), JobSpec("y", (4, 4), 1e308)])
        js.close()
        _, records, _ = scan_journal(str(tmp_path / "j.jsonl"))
        assert [r["op"] for r in records] == ["submit"]
        assert [j["id"] for j in records[0]["jobs"]] == [s.id for s in _specs()]

    def test_recover_replays_to_identical_state(self, tmp_path):
        js = self._js(tmp_path)
        js.submit(_specs())
        js.advance(2.0, events=False)
        live_clock, live_seq = js.session.now, js.session.applied_seq
        js.close()  # "crash": the in-memory session is discarded

        js2 = self._js(tmp_path)
        assert js2.replayed == 2 and js2.deduped == 0
        assert js2.session.now == live_clock
        assert js2.session.applied_seq == live_seq
        js2.drain()
        ref = SchedulingSession([4, 4])
        ref.submit(_specs())
        ref.advance(2.0, events=False)
        ref.drain()
        assert js2.session.to_schedule().placements == ref.to_schedule().placements
        js2.close()

    def test_recovery_restores_rng_cursor(self, tmp_path):
        js = self._js(tmp_path)
        js.submit(_specs(2))
        js.session.rng.random(3)  # the service hands this stream to clients
        js.drain()  # journals the post-draw cursor
        expect = list(js.session.rng.random(4))
        js.journal.close()
        js2 = self._js(tmp_path)
        assert list(js2.session.rng.random(4)) == expect

    def test_snapshot_plus_suffix_dedup(self, tmp_path):
        js = self._js(tmp_path)
        js.submit(_specs())
        js.checkpoint()  # snapshot at seq 1, journal rotated
        js.advance(1.0, events=False)
        js.close()
        js2 = self._js(tmp_path)
        assert js2.recovered and js2.replayed == 1 and js2.deduped == 0
        assert js2.session.applied_seq == 2

    def test_stale_snapshot_dedups_replayed_prefix(self, tmp_path):
        js = self._js(tmp_path)
        js.submit(_specs())
        js.checkpoint()
        js.advance(1.0, events=False)
        js.drain()
        js.close()
        # regress the snapshot to the checkpoint state but keep the longer
        # journal: replay must skip nothing (both records follow seq 1)
        # then land on the same final state
        js2 = self._js(tmp_path)
        assert js2.session.applied_seq == 3

    def test_journal_gap_fails_loudly(self, tmp_path):
        js = self._js(tmp_path)
        js.submit(_specs())
        js.drain()
        js.close()
        # corrupt: drop the snapshot so replay starts at applied_seq 0 and
        # rewrite the journal to start at seq 5
        os.unlink(tmp_path / "snap.json")
        (tmp_path / "j.jsonl").write_text(
            '{"format": "repro-journal/1", "base_seq": 4}\n'
            '{"seq": 5, "op": "drain", "rng": null}\n'
        )
        with pytest.raises(ValueError, match="journal gap"):
            self._js(tmp_path)

    def test_bad_record_fails_replay_loudly(self, tmp_path):
        (tmp_path / "j.jsonl").write_text(
            '{"format": "repro-journal/1", "base_seq": 0}\n'
            '{"seq": 1, "op": "teleport", "rng": null}\n'
        )
        with pytest.raises(ValueError, match="failed to replay"):
            self._js(tmp_path)

    @pytest.mark.parametrize("rng", ['"garbage"', '{"bit_generator": "PCG64"}'])
    def test_a_malformed_rng_fails_recovery_by_seq(self, tmp_path, rng):
        """The last record's rng is the restored cursor: one numpy cannot
        load (a string, a dict without ``state``) is a ValueError naming
        the record, not numpy's TypeError or KeyError."""
        (tmp_path / "j.jsonl").write_text(
            '{"format": "repro-journal/1", "base_seq": 0}\n'
            '{"seq": 1, "op": "drain", "rng": ' + rng + '}\n'
        )
        with pytest.raises(ValueError, match="journal record seq 1: malformed rng"):
            self._js(tmp_path)

    def test_auto_checkpoint_rotates_journal(self, tmp_path):
        js = self._js(tmp_path, checkpoint_every=2)
        js.submit(_specs(2))
        js.advance(0.5, events=False)  # 2nd record -> snapshot + rotation
        header, records, _ = scan_journal(str(tmp_path / "j.jsonl"))
        assert header["base_seq"] == 2 and records == []
        snap = json.loads((tmp_path / "snap.json").read_text())
        assert snap["applied_seq"] == 2
        js.close()

    def test_recovery_from_v1_snapshot_reads_applied_seq_zero(self, tmp_path):
        """A pre-journal snapshot (no ``applied_seq``) recovers as seq 0 and
        a same-lineage journal replays on top of it."""
        s = SchedulingSession([4, 4])
        s.submit(_specs())
        snap = checkpoint_session(s)
        del snap["applied_seq"]  # what a PR-5-era snapshot looks like
        atomic_write_text(
            str(tmp_path / "snap.json"), json.dumps(snap) + "\n", fsync=False
        )
        js = JournaledSession.recover(
            str(tmp_path / "j.jsonl"),
            str(tmp_path / "snap.json"),
            fsync=False,
        )
        assert js.recovered and js.session.applied_seq == 0
        js.drain()
        ref = SchedulingSession([4, 4])
        ref.submit(_specs())
        ref.drain()
        assert js.session.to_schedule().placements == ref.to_schedule().placements
        js.close()

    def test_fresh_session_needs_capacities(self, tmp_path):
        with pytest.raises(ValueError, match="no snapshot"):
            JournaledSession.recover(
                str(tmp_path / "j.jsonl"), str(tmp_path / "snap.json")
            )


class TestChaosInjector:
    def test_unknown_point_rejected(self):
        with pytest.raises(ValueError, match="unknown chaos point"):
            ChaosInjector({"op-oops": 1.0})

    def test_flush_delay_is_not_a_point(self):
        """The one non-crash point slept only given a ``delay`` that no
        caller passed; it is gone rather than accepted and inert."""
        with pytest.raises(ValueError, match=r"unknown chaos point\(s\) \['flush-delay'\]"):
            ChaosInjector({"flush-delay": 1.0})

    def test_bad_rate_rejected(self):
        with pytest.raises(ValueError, match="must be in"):
            ChaosInjector({"op-begin": 1.5})

    def test_from_spec(self):
        c = ChaosInjector.from_spec("op-applied:0.25, mid-drain")
        assert c.rates == {"op-applied": 0.25, "mid-drain": 1.0}
        with pytest.raises(ValueError, match="malformed chaos rate"):
            ChaosInjector.from_spec("op-applied:lots")
        with pytest.raises(ValueError, match="empty chaos spec"):
            ChaosInjector.from_spec(" , ")

    def test_determinism_and_isolation(self):
        """Same seed -> same firing stream; arming another point must not
        shift an existing point's stream (only configured points draw)."""
        a = ChaosInjector({"op-begin": 0.5}, seed=7)
        b = ChaosInjector({"op-begin": 0.5, "mid-drain": 0.0}, seed=7)
        stream_a = [a.fires("op-begin") for _ in range(64)]
        fires_b = []
        for _ in range(64):
            b.fires("mid-drain")  # rate 0: must not draw
            fires_b.append(b.fires("op-begin"))
        assert stream_a == fires_b
        assert any(stream_a) and not all(stream_a)

    def test_max_crashes_quiets_injector(self):
        c = ChaosInjector({"op-begin": 1.0}, max_crashes=2)
        for _ in range(2):
            with pytest.raises(ChaosCrash):
                c.maybe_crash("op-begin")
        c.maybe_crash("op-begin")  # quiet now
        assert c.crashes == 2 and c.fired == ["op-begin", "op-begin"]

    def test_on_crash_override_runs_first(self):
        seen = []
        c = ChaosInjector({"op-begin": 1.0}, on_crash=seen.append)
        with pytest.raises(ChaosCrash):
            c.maybe_crash("op-begin")
        assert seen == ["op-begin"]


class TestCrashPointsRecoverable:
    """Each crash point, deterministically forced, must be survivable:
    recover + client retry converges on the uninterrupted schedule."""

    @pytest.mark.parametrize("point", CRASH_POINTS)
    def test_single_forced_crash_recovers(self, tmp_path, point):
        ref = SchedulingSession([4, 4])
        ref.submit(_specs())
        ref.drain()

        chaos = ChaosInjector({point: 1.0}, max_crashes=1)
        paths = dict(
            journal_path=str(tmp_path / "j.jsonl"),
            snapshot_path=str(tmp_path / "snap.json"),
        )

        def recover():
            while True:
                try:
                    return JournaledSession.recover(
                        capacities=[4, 4], fsync=False, chaos=chaos, **paths
                    )
                except ChaosCrash:
                    continue

        js = recover()
        while True:
            try:
                todo = [s for s in _specs() if s.id not in js.session]
                if todo:
                    js.submit(todo)
                js.drain()
                break
            except ChaosCrash:
                js = recover()
        assert chaos.crashes == 1, f"{point} never fired"
        assert js.session.to_schedule().placements == ref.to_schedule().placements
        js.close()


class TestSupervisor:
    class _FakeProc:
        def __init__(self, code):
            self.code = code

        def wait(self, timeout=None):
            return self.code

        def terminate(self):
            pass

        def kill(self):
            pass

    def _spawner(self, codes, envs=None):
        it = iter(codes)

        def spawn(cmd, env=None):
            if envs is not None:
                envs.append(env[RESTARTS_ENV])
            return self._FakeProc(next(it))

        return spawn

    def test_policy_validation(self):
        with pytest.raises(ValueError, match="base <= cap"):
            BackoffPolicy(base=2.0, cap=1.0)
        with pytest.raises(ValueError, match="max_restarts"):
            BackoffPolicy(max_restarts=-1)

    def test_clean_exit_ends_supervision(self):
        code = supervise(
            ["w"], spawn=self._spawner([0]), sleep=lambda s: None, clock=lambda: 0.0
        )
        assert code == 0

    def test_restarts_with_exponential_backoff_then_success(self):
        sleeps = []
        envs = []
        code = supervise(
            ["w"],
            policy=BackoffPolicy(base=0.5, cap=2.0, max_restarts=5),
            spawn=self._spawner([137, 137, 137, 0], envs=envs),
            sleep=sleeps.append,
            clock=lambda: 0.0,
        )
        assert code == 0
        assert sleeps == [0.5, 1.0, 2.0]  # doubling, capped
        assert envs == ["0", "1", "2", "3"]  # restart count reaches the child

    def test_budget_exhaustion_returns_last_code(self):
        notes = []
        code = supervise(
            ["w"],
            policy=BackoffPolicy(base=0.01, max_restarts=2),
            spawn=self._spawner([9, 9, 7]),
            sleep=lambda s: None,
            clock=lambda: 0.0,
            on_restart=lambda *a: notes.append(a),
        )
        assert code == 7
        assert [n[0] for n in notes] == [1, 2]

    def test_healthy_run_resets_budget_and_delay(self):
        # each child runs 100s (>= healthy_seconds) before dying: every
        # crash starts from a fresh budget, so max_restarts=1 never
        # exhausts and the backoff never leaves base
        t = iter([0.0, 100.0, 100.0, 250.0, 250.0])
        sleeps = []
        code = supervise(
            ["w"],
            policy=BackoffPolicy(base=0.5, cap=8.0, max_restarts=1, healthy_seconds=30.0),
            spawn=self._spawner([137, 137, 0]),
            sleep=sleeps.append,
            clock=lambda: next(t),
        )
        assert code == 0
        assert sleeps == [0.5, 0.5]  # reset each time, never doubled


class TestKillAtRandomOffset:
    """The tentpole property: kill the durable session at a random crash
    site; restore + replay + client retry must drain to the exact schedule
    of the uninterrupted run — through journal rotations and compactions."""

    @settings(max_examples=15, deadline=None)
    @given(
        family=st.sampled_from(("layered", "chain", "forkjoin", "sp", "independent")),
        d=st.integers(min_value=1, max_value=4),
        seed=st.integers(min_value=0, max_value=10**6),
        max_crashes=st.integers(min_value=1, max_value=6),
        checkpoint_every=st.integers(min_value=1, max_value=5),
    )
    def test_kill_recover_drain_identity(
        self, tmp_path_factory, family, d, seed, max_crashes, checkpoint_every
    ):
        pool = ResourcePool.uniform(d, 8)
        inst = random_instance(family, 8, pool, seed=seed).instance
        result = get_scheduler("ours").schedule(inst)
        allocation = result.allocation
        batch = list_schedule(inst, allocation, fifo_priority)

        tmp = tmp_path_factory.mktemp("crash")
        js, chaos = drive_session_with_crashes(
            inst,
            allocation,
            seed=seed,
            dirpath=str(tmp),
            batch=batch,
            max_crashes=max_crashes,
            checkpoint_every=checkpoint_every,
        )
        js.session.validate()
        assert portable_events(
            js.session.to_schedule(), reprify=False
        ) == portable_events(batch, reprify=True)
        js.close()

    @settings(max_examples=10, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=10**6),
        cut=st.integers(min_value=0, max_value=3),
    )
    def test_kill_after_v1_snapshot_still_recovers(
        self, tmp_path_factory, seed, cut
    ):
        """Recovery from a legacy snapshot (no ``applied_seq``) with a
        journal suffix on top: downgrade the snapshot mid-stream, crash,
        recover, drain — still identical to the uninterrupted run."""
        pool = ResourcePool.uniform(2, 8)
        inst = random_instance("layered", 8, pool, seed=seed).instance
        result = get_scheduler("ours").schedule(inst)
        specs = service_specs(inst, result.allocation)

        ref = SchedulingSession(pool.capacities)
        ref.submit(specs)
        ref.drain()

        tmp = tmp_path_factory.mktemp("v1")
        jp, sp = str(tmp / "j.jsonl"), str(tmp / "snap.json")
        js = JournaledSession.recover(jp, sp, capacities=pool.capacities, fsync=False)
        js.submit(specs[: cut + 1])
        js.checkpoint()
        # downgrade the on-disk snapshot to the legacy shape (a batch
        # submit is one record, so the checkpoint sits at seq 1)
        snap = json.loads(open(sp).read())
        assert snap.pop("applied_seq") == 1
        atomic_write_text(sp, json.dumps(snap) + "\n", fsync=False)
        # journal a suffix the legacy snapshot knows nothing about; fake
        # its lineage by restarting seq numbering below at base 0
        js.session.applied_seq = 0
        js.journal.rotate(0)
        if cut + 1 < len(specs):
            js.submit(specs[cut + 1 :])
        js.advance(0.5, events=False)
        js.close()  # crash here

        js2 = JournaledSession.recover(jp, sp, fsync=False)
        assert js2.replayed >= 1 and js2.session.applied_seq >= 1
        todo = [s for s in specs if s.id not in js2.session]
        if todo:
            js2.submit(todo)
        js2.drain()
        js2.session.validate()
        assert (
            js2.session.to_schedule().placements == ref.to_schedule().placements
        )
        js2.close()
