"""Tests for the sharded routing tier: policies, fan-out, failover."""

import json
import threading

import pytest
from helpers import scripted_tcp_server
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.service import (
    ROUTING_POLICIES,
    LocalWorker,
    RemoteWorker,
    Router,
    SchedulingSession,
    ServiceFrontend,
    ShardUnavailable,
    register_policy,
    resolve_policy,
    serve_tcp,
    stable_shard,
)
from repro.service.journal import JournaledSession
from repro.service.router import pick_free_port


def job(jid, demand=(1,), duration=1.0, **kw):
    return {"id": jid, "demand": list(demand), "duration": duration, **kw}


def worker(caps=(4,), **kw):
    kw.setdefault("batch_size", 1)
    kw.setdefault("admission", "fifo")
    return LocalWorker(ServiceFrontend(SchedulingSession(caps), **kw))


def router(nshards=2, caps=(4,), **kw):
    kw.setdefault("batch_size", 100)
    kw.setdefault("batch_interval", 9999.0)
    return Router([worker(caps) for _ in range(nshards)], **kw)


class TestPolicies:
    def test_stable_shard_is_deterministic_and_in_range(self):
        for tenant in ("acme", "lab", "x", "", "日本"):
            first = stable_shard(tenant, 4)
            assert 0 <= first < 4
            assert stable_shard(tenant, 4) == first

    def test_hash_policy_rejects_a_spec(self):
        with pytest.raises(ValueError, match="no --shard-map"):
            resolve_policy("hash", 2, "a=0")

    def test_explicit_policy_parses_and_routes(self):
        p = resolve_policy("explicit", 3, "acme=0, lab=1 ,*=2")
        assert p.shard_of("acme", [0, 0, 0]) == 0
        assert p.shard_of("lab", [0, 0, 0]) == 1
        assert p.shard_of("stranger", [0, 0, 0]) == 2  # the '*' fallback

    def test_explicit_policy_without_fallback_refuses_unmapped(self):
        p = resolve_policy("explicit", 2, "acme=0")
        with pytest.raises(ValueError, match="no shard mapping"):
            p.shard_of("stranger", [0, 0])

    def test_explicit_policy_validates_the_spec(self):
        with pytest.raises(ValueError, match="needs a --shard-map"):
            resolve_policy("explicit", 2, None)
        with pytest.raises(ValueError, match="out of range"):
            resolve_policy("explicit", 2, "acme=5")
        with pytest.raises(ValueError, match="tenant=shard"):
            resolve_policy("explicit", 2, "acme")

    def test_least_loaded_is_sticky(self):
        p = resolve_policy("least-loaded", 2, None)
        assert p.shard_of("a", [3, 0]) == 1
        # 'a' stays pinned even when the load balance inverts
        assert p.shard_of("a", [0, 9]) == 1
        assert p.shard_of("b", [5, 2]) == 1
        assert not p.deterministic

    def test_unknown_policy(self):
        with pytest.raises(ValueError, match="unknown routing policy"):
            resolve_policy("quantum", 2, None)

    def test_register_policy_extends_the_registry(self):
        @register_policy("always-zero")
        class AlwaysZero:
            deterministic = True

            def __init__(self, nshards, spec=None):
                pass

            def shard_of(self, tenant, loads):
                return 0

        try:
            r = router(nshards=2, policy="always-zero")
            r.handle_request({"op": "submit", "jobs": [job("a", tenant="t1")]})
            r.handle_request({"op": "flush"})
            assert r._placed["a"] == 0
        finally:
            del ROUTING_POLICIES["always-zero"]


class TestRouting:
    def test_tenant_affinity_and_fair_merge(self):
        r = router(nshards=3)
        r.handle_request({"op": "submit", "jobs": [
            job("a1", tenant="acme"), job("l1", tenant="lab"),
            job("a2", tenant="acme"), job("z1", tenant="zed"),
        ]})
        resp = r.handle_request({"op": "flush"})
        # stride-fair across tenants: one each before acme's second
        assert resp["admitted"] == ["a1", "l1", "z1", "a2"]
        assert r._placed["a1"] == r._placed["a2"] == r.shard_of("acme")

    def test_weights_hold_across_shards(self):
        r = router(nshards=2, policy="explicit",
                   policy_spec="heavy=0,light=1")
        r.handle_request({"op": "tenant", "name": "heavy", "weight": 2.0})
        r.handle_request({"op": "submit", "jobs": [
            job(f"h{i}", tenant="heavy") for i in range(4)
        ] + [job(f"l{i}", tenant="light") for i in range(2)]})
        resp = r.handle_request({"op": "flush"})
        # 2:1 stride even though the tenants live on different workers
        assert resp["admitted"] == ["h0", "l0", "h1", "h2", "l1", "h3"]

    def test_cross_shard_dependency_is_refused(self):
        r = router(nshards=2, policy="explicit", policy_spec="a=0,b=1")
        r.handle_request({"op": "submit", "jobs": [
            job("up", tenant="a"),
            job("down", tenant="b", preds=["up"]),
        ]})
        resp = r.handle_request({"op": "flush"})
        assert resp["admitted"] == ["up"]
        (err,) = resp["errors"]
        assert err["id"] == "down" and err["error"] == "admission_failed"
        assert "span workers" in err["detail"]

    def test_unmapped_tenant_is_an_admission_error(self):
        r = router(nshards=2, policy="explicit", policy_spec="a=0")
        r.handle_request({"op": "submit", "jobs": [job("x", tenant="ghost")]})
        resp = r.handle_request({"op": "flush"})
        (err,) = resp["errors"]
        assert err["error"] == "admission_failed"
        assert "no shard mapping" in err["detail"]

    def test_boolean_advance_is_an_invalid_request(self):
        r = router(nshards=2)
        resp = r.handle_request({"op": "advance", "until": True})
        assert resp["ok"] is False and resp["error"] == "invalid_request"
        assert r.handle_request({"op": "status"})["clock"] == 0.0

    def test_router_max_pending_backpressure(self):
        r = router(nshards=2, max_pending=1)
        resp = r.handle_request({"op": "submit", "jobs": [
            job("a", tenant="t"), job("b", tenant="t"), job("c", tenant="u"),
        ]})
        assert resp["backpressure"] == ["b"]
        assert resp["buffered"] == 2

    def test_cancel_buffered_cascades_at_the_router(self):
        r = router(nshards=2)
        r.handle_request({"op": "submit", "jobs": [
            job("root", tenant="t"), job("kid", tenant="t", preds=["root"]),
        ]})
        resp = r.handle_request({"op": "cancel", "id": "root"})
        assert resp["ok"] and sorted(resp["cancelled"]) == ["kid", "root"]
        assert r.handle_request({"op": "flush"})["admitted"] == []

    def test_cancel_routed_job_forwards_to_its_shard(self):
        r = router(nshards=2)
        r.handle_request({"op": "submit", "jobs": [
            job("a", duration=5.0, tenant="t"), job("b", duration=5.0, tenant="t"),
        ]})
        r.handle_request({"op": "flush"})
        resp = r.handle_request({"op": "cancel", "id": "b"})
        assert resp["ok"] and resp["cancelled"] == ["b"]
        assert r.handle_request({"op": "drain"})["completed"] == 1

    def test_cancel_unknown_needs_a_tenant_hint(self):
        r = router(nshards=2)
        resp = r.handle_request({"op": "cancel", "id": "ghost"})
        assert not resp["ok"] and resp["error"] == "invalid_request"
        assert "pass 'tenant'" in resp["detail"]
        # with the hint the shard answers (and reports the unknown id)
        resp = r.handle_request({"op": "cancel", "id": "ghost", "tenant": "t"})
        assert not resp["ok"] and resp["error"] == "invalid_request"
        assert "unknown job" in resp["detail"]

    def test_restore_is_refused_in_sharded_mode(self):
        clock = [0.0]
        r = router(nshards=2, batch_interval=1.0, clock=lambda: clock[0])
        r.handle_request({"op": "submit", "jobs": [job("precious", tenant="t")]})
        clock[0] = 10.0  # the buffer is long past due
        resp = r.handle_request({"op": "restore", "path": "x.json"})
        assert not resp["ok"] and resp["error"] == "invalid_request"
        assert "per-shard" in resp["detail"]
        # the refusal did not first hand the buffer to the workers behind the
        # client's back (the router's dispatcher used to pre-flush here)
        assert "admitted_by_batch" not in resp
        assert all(w.frontend.session.status()["jobs"] == 0 for w in r.workers)
        assert r.handle_request({"op": "flush"})["admitted"] == ["precious"]


class TestFanOut:
    def _loaded(self, nshards=2, n=4):
        r = router(nshards=nshards)
        r.handle_request({"op": "submit", "jobs": [
            job(f"j{i}", duration=1.0 + i % 2, tenant=f"t{i}") for i in range(n)
        ]})
        r.handle_request({"op": "flush"})
        return r

    def test_advance_merges_events_in_time_order(self):
        r = self._loaded()
        resp = r.handle_request({"op": "advance", "until": 3.0})
        assert resp["ok"]
        times = [e["time"] for e in resp["events"]]
        assert times == sorted(times)
        started = {e["id"] for e in resp["events"] if e["event"] == "start"}
        assert started == {"j0", "j1", "j2", "j3"}
        assert resp["clock"] == 3.0

    def test_advance_event_count_mode(self):
        r = self._loaded()
        resp = r.handle_request({"op": "advance", "until": 3.0, "events": False})
        assert "events" not in resp and resp["event_count"] == 8  # 4 starts + 4 finishes

    def test_drain_sums_and_maxes(self):
        r = self._loaded(n=5)
        resp = r.handle_request({"op": "drain"})
        assert resp["completed"] == 5
        assert resp["clock"] == resp["makespan"] > 0

    def test_status_aggregates_and_nests(self):
        r = self._loaded()
        resp = r.handle_request({"op": "status"})
        assert resp["jobs"] == 4 and resp["workers"] == 2
        assert resp["policy"] == "hash"
        assert set(resp["shards"]) == {"0", "1"}
        assert sum(s["jobs"] for s in resp["shards"].values()) == 4

    def test_stats_is_schema_stable_and_nests(self):
        r = self._loaded()
        r.handle_request({"op": "drain"})
        resp = r.handle_request({"op": "stats"})
        single = {"clock", "buffered", "queues", "admitted", "completed",
                  "cancelled", "journal_seq", "journal_records", "restarts"}
        assert set(resp) - {"ok", "op"} == single | {"workers", "policy", "shards"}
        assert resp["admitted"] == resp["completed"] == 4
        for shard_stats in resp["shards"].values():
            assert set(shard_stats) - {"ok", "op"} == single

    def test_validate_merges_violations(self):
        r = self._loaded()
        r.handle_request({"op": "drain"})
        resp = r.handle_request({"op": "validate"})
        assert resp["valid"] and resp["violations"] == []

    def test_checkpoint_writes_per_shard_files(self, tmp_path):
        r = self._loaded()
        base = str(tmp_path / "ck.json")
        resp = r.handle_request({"op": "checkpoint", "path": base})
        assert resp["paths"] == [f"{base}.shard0", f"{base}.shard1"]
        for p in resp["paths"]:
            with open(p) as fh:
                assert json.load(fh)["format"].startswith("repro-session/")
        inline = r.handle_request({"op": "checkpoint"})
        assert len(inline["snapshots"]) == 2

    def test_trace_inline_and_per_shard_paths(self, tmp_path):
        r = self._loaded()
        r.handle_request({"op": "drain"})
        resp = r.handle_request({"op": "trace"})
        assert len(resp["traces"]) == 2
        base = str(tmp_path / "trace.json")
        resp = r.handle_request({"op": "trace", "path": base})
        assert resp["paths"] == [f"{base}.shard0", f"{base}.shard1"]

    def test_shutdown_closes_router_and_workers(self):
        r = router(nshards=2)
        resp = r.handle_request({"op": "shutdown"})
        assert resp["ok"] and resp["workers"] == 2
        assert r.closed
        assert all(w.frontend.closed for w in r.workers)


class _DeadWorker:
    """A worker handle whose shard is unreachable."""

    def __init__(self, shard):
        self.shard = shard

    def call(self, request, deadline=None):
        raise ShardUnavailable(self.shard, "connection refused")

    def close(self):
        pass


class TestFailover:
    def test_submit_to_a_dead_shard_is_backpressure_not_loss(self):
        r = router(nshards=2, policy="explicit", policy_spec="alive=0,dead=1")
        r.replace_worker(1, _DeadWorker(1))
        r.handle_request({"op": "submit", "jobs": [
            job("a", tenant="alive"), job("d", tenant="dead"),
        ]})
        resp = r.handle_request({"op": "flush"})
        # the reachable shard's job was admitted — not discarded because
        # a *different* shard was down
        assert resp["admitted"] == ["a"]
        (err,) = resp["errors"]
        assert err["id"] == "d" and err["error"] == "backpressure"
        assert "resubmit" in err["detail"]

    def test_broadcast_through_a_dead_shard_is_backpressure(self):
        r = router(nshards=2)
        r.replace_worker(1, _DeadWorker(1))
        resp = r.handle_request({"op": "drain"})
        assert not resp["ok"] and resp["error"] == "backpressure"
        assert "shard 1 unavailable" in resp["detail"]

    def test_replace_worker_restores_service(self):
        r = router(nshards=2, policy="explicit", policy_spec="t=1")
        r.replace_worker(1, _DeadWorker(1))
        r.handle_request({"op": "submit", "jobs": [job("x", tenant="t")]})
        assert r.handle_request({"op": "flush"})["errors"]
        r.replace_worker(1, worker())
        r.handle_request({"op": "submit", "jobs": [job("x", tenant="t")]})
        resp = r.handle_request({"op": "flush"})
        assert resp["admitted"] == ["x"]
        assert r.handle_request({"op": "drain"})["completed"] == 1

    def test_shutdown_survives_a_dead_shard(self):
        r = router(nshards=2)
        r.replace_worker(0, _DeadWorker(0))
        resp = r.handle_request({"op": "shutdown"})
        assert resp["ok"] and r.closed


class TestRemoteWorker:
    def _serve(self, caps=(4,)):
        fe = ServiceFrontend(SchedulingSession(caps), batch_size=1,
                             admission="fifo")
        ready = threading.Event()
        t = threading.Thread(target=serve_tcp, args=(fe, "127.0.0.1", 0),
                             kwargs={"ready": ready}, daemon=True)
        t.start()
        assert ready.wait(5.0)
        return fe, ready.port, t

    def test_roundtrip_and_envelope_stripping(self):
        fe, port, t = self._serve()
        w = RemoteWorker("127.0.0.1", port, shard=3)
        resp = w.call({"op": "submit", "jobs": [job("a")]}, deadline=10.0)
        assert resp["ok"] and resp["admitted"] == ["a"]
        assert "v" not in resp and "rid" not in resp
        resp = w.call({"op": "drain"}, deadline=10.0)
        assert resp["completed"] == 1
        w.call({"op": "shutdown"}, deadline=10.0)
        w.close()
        t.join(timeout=5.0)
        assert not t.is_alive()

    def test_unreachable_worker_raises_shard_unavailable(self):
        port = pick_free_port()  # bound-probed and released: nothing listens
        w = RemoteWorker("127.0.0.1", port, shard=7)
        with pytest.raises(ShardUnavailable, match="shard 7"):
            w.call({"op": "status"}, deadline=0.2)

    def test_connects_lazily_on_the_first_call(self):
        port = pick_free_port()
        w = RemoteWorker("127.0.0.1", port, shard=0)  # nothing listens yet
        fe = ServiceFrontend(SchedulingSession((4,)), batch_size=1)
        ready = threading.Event()
        t = threading.Thread(target=serve_tcp, args=(fe, "127.0.0.1", port),
                             kwargs={"ready": ready}, daemon=True)
        t.start()
        assert ready.wait(5.0)
        assert w.call({"op": "status"}, deadline=10.0)["ok"]
        w.call({"op": "shutdown"}, deadline=10.0)
        w.close()
        t.join(timeout=5.0)
        assert not t.is_alive()

    def test_stale_rid_reply_is_skipped_after_a_reconnect(self):
        def vanish(fh):
            fh.readline()  # reads the request, dies without answering

        def stale_then_real(fh):
            rid = json.loads(fh.readline())["rid"]  # the resend: same rid
            for reply in ({"v": 2, "rid": rid - 1, "ok": True, "op": "stale"},
                          {"v": 2, "rid": rid, "ok": True, "op": "status"}):
                fh.write(json.dumps(reply) + "\n")
            fh.flush()

        port, t = scripted_tcp_server(vanish, stale_then_real)
        w = RemoteWorker("127.0.0.1", port, shard=2)
        assert w.call({"op": "status"}, deadline=10.0) == {"ok": True, "op": "status"}
        w.close()
        t.join(timeout=5.0)
        assert not t.is_alive()

    def test_router_over_tcp_workers(self):
        servers = [self._serve() for _ in range(2)]
        workers = [RemoteWorker("127.0.0.1", port, shard=i)
                   for i, (_, port, _) in enumerate(servers)]
        r = Router(workers, batch_size=100, batch_interval=9999.0,
                   call_deadline=10.0)
        r.handle_request({"op": "submit", "jobs": [
            job(f"j{i}", tenant=f"t{i}") for i in range(4)
        ]})
        assert len(r.handle_request({"op": "flush"})["admitted"]) == 4
        assert r.handle_request({"op": "drain"})["completed"] == 4
        assert r.handle_request({"op": "shutdown"})["ok"]
        r.close()


def _durable_worker(dirpath, i, caps):
    durable = JournaledSession.recover(
        f"{dirpath}/j{i}.jsonl", f"{dirpath}/s{i}.json",
        capacities=list(caps), fsync=False,
    )
    return LocalWorker(ServiceFrontend(durable=durable, batch_size=1,
                                       admission="fifo"))


class TestShardedIdentityProperty:
    """The ISSUE's property: a sharded service under random tenant
    interleavings — with one worker killed mid-stream and recovered from
    its journal — matches an unsharded per-tenant reference."""

    @given(
        data=st.data(),
        n=st.integers(min_value=1, max_value=18),
    )
    @settings(max_examples=20, deadline=None)
    def test_sharded_with_a_killed_worker_matches_unsharded_reference(
        self, data, n
    ):
        import tempfile

        from repro.conformance.fuzz import portable_events

        caps = (4,)
        nshards = 2
        tenants = [f"t{i}" for i in range(4)]
        jobs = []
        for i in range(n):
            tenant = data.draw(st.sampled_from(tenants), label=f"tenant{i}")
            rec = job(
                f"j{i}",
                demand=(data.draw(st.integers(1, 4), label=f"demand{i}"),),
                duration=float(data.draw(st.integers(1, 4), label=f"dur{i}")),
                tenant=tenant,
            )
            # optional same-tenant dependency on an earlier job
            earlier = [r["id"] for r in jobs if r["tenant"] == tenant]
            if earlier and data.draw(st.booleans(), label=f"dep{i}"):
                rec["preds"] = [earlier[-1]]
            jobs.append(rec)
        cut = data.draw(st.integers(0, n), label="cut")
        victim = data.draw(st.integers(0, nshards - 1), label="victim")

        with tempfile.TemporaryDirectory() as tmp:
            r = Router(
                [_durable_worker(tmp, i, caps) for i in range(nshards)],
                batch_size=len(jobs) + 1, batch_interval=9999.0,
            )
            admitted = []
            with r:
                for chunk in (jobs[:cut], jobs[cut:]):
                    if chunk:
                        r.handle_request({"op": "submit", "jobs": chunk})
                        resp = r.handle_request({"op": "flush"})
                        assert not resp.get("errors"), resp
                        admitted.extend(resp["admitted"])
                    if chunk is jobs[:cut]:
                        # SIGKILL equivalent: drop the worker uncleanly and
                        # recover a successor from its journal alone
                        r.replace_worker(victim, _durable_worker(tmp, victim, caps))
                assert r.handle_request({"op": "drain"})["ok"]
                got = [
                    portable_events(w.frontend.session.to_schedule(), reprify=False)
                    for w in r.workers
                ]

        assert sorted(admitted) == sorted(rec["id"] for rec in jobs)
        # unsharded reference: per shard, one plain session fed the
        # router's admission order restricted to that shard's tenants
        from repro.service.session import JobSpec

        by_id = {rec["id"]: rec for rec in jobs}
        for i in range(nshards):
            ref = SchedulingSession(caps)
            mine = [
                JobSpec.from_dict(by_id[j])
                for j in admitted
                if stable_shard(by_id[j]["tenant"], nshards) == i
            ]
            if mine:
                ref.submit(mine)
            ref.drain()
            assert got[i] == portable_events(ref.to_schedule(), reprify=False)
