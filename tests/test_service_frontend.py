"""Tests for the JSON-lines service front-end: protocol, batching, fairness."""

import io
import json
import socket
import threading

import pytest

from repro.service import ServiceFrontend, SchedulingSession, serve_stdio, serve_tcp
from repro.service.session import JobSpec


def job(jid, demand=(1,), duration=1.0, **kw):
    return {"id": jid, "demand": list(demand), "duration": duration, **kw}


def frontend(caps=(4,), **kw):
    kw.setdefault("batch_size", 100)
    kw.setdefault("batch_interval", 9999.0)
    return ServiceFrontend(SchedulingSession(caps), **kw)


class TestBatching:
    def test_submissions_buffer_until_flush(self):
        fe = frontend()
        r = fe.handle_request({"op": "submit", "jobs": [job("a"), job("b")]})
        assert r["ok"] and r["buffered"] == 2 and "admitted" not in r
        assert fe.session.status()["jobs"] == 0
        r = fe.handle_request({"op": "flush"})
        assert r["admitted"] == ["a", "b"]
        assert fe.session.status()["jobs"] == 2

    def test_batch_size_triggers_admission(self):
        fe = frontend(batch_size=2)
        assert "admitted" not in fe.handle_request({"op": "submit", "jobs": [job("a")]})
        r = fe.handle_request({"op": "submit", "jobs": [job("b")]})
        assert r["admitted"] == ["a", "b"] and r["buffered"] == 0

    def test_batch_interval_triggers_admission(self):
        clock = [0.0]
        fe = ServiceFrontend(
            SchedulingSession([4]),
            batch_size=100,
            batch_interval=1.0,
            clock=lambda: clock[0],
        )
        fe.handle_request({"op": "submit", "jobs": [job("a")]})
        clock[0] = 0.5
        assert "admitted" not in fe.handle_request({"op": "submit", "jobs": [job("b")]})
        clock[0] = 1.25  # the *oldest* buffered job has now waited past the interval
        r = fe.handle_request({"op": "submit", "jobs": [job("c")]})
        assert r["admitted"] == ["a", "b", "c"]

    def test_batch_interval_fires_without_another_submit(self):
        # "whichever comes first" must not depend on further submissions:
        # any request past the interval admits the due buffer
        clock = [0.0]
        fe = ServiceFrontend(
            SchedulingSession([4]),
            batch_size=100,
            batch_interval=1.0,
            clock=lambda: clock[0],
        )
        fe.handle_request({"op": "submit", "jobs": [job("a")]})
        clock[0] = 5.0
        r = fe.handle_request({"op": "status"})
        assert r["admitted_by_batch"] == ["a"]
        assert r["jobs"] == 1 and r["buffered"] == 0

    def test_time_ops_force_admission(self):
        fe = frontend()
        fe.handle_request({"op": "submit", "jobs": [job("a", duration=2.0)]})
        r = fe.handle_request({"op": "advance", "until": 3.0})
        assert [e["id"] for e in r["events"] if e["event"] == "start"] == ["a"]
        fe.handle_request({"op": "submit", "jobs": [job("b")]})
        r = fe.handle_request({"op": "drain"})
        assert r["completed"] == 2

    @pytest.mark.parametrize(
        "literal, why",
        (("NaN", "non-finite"), ("Infinity", "non-finite"), ("true", "expected a number")),
        ids=("NaN", "Infinity", "true"),
    )
    def test_non_finite_advance_is_an_invalid_request(self, literal, why):
        """``json.loads`` accepts the non-JSON float literals; the session
        must not (NaN drained everything, Infinity pinned the clock) — nor
        is ``true`` the time 1.0."""
        fe = frontend()
        fe.handle_request({"op": "submit", "jobs": [job("a", duration=2.0)]})
        r = fe.handle_request(json.loads('{"op":"advance","until":%s}' % literal))
        assert not r["ok"] and r["error"] == "invalid_request"
        assert why in r["detail"]
        assert fe.session.now == 0.0 and fe.session.counters.completed == 0
        assert fe.handle_request({"op": "drain"})["makespan"] == 2.0

    def test_overflowing_work_is_an_admission_error_and_replies_stay_json(self):
        """Two finite durations whose sum is not: ``drain`` used to answer
        ``{"clock": Infinity, "makespan": Infinity}``, which is not JSON."""

        def strict(resp):
            def refuse(literal):
                raise AssertionError(f"non-JSON literal {literal} in {resp}")

            return json.loads(json.dumps(resp), parse_constant=refuse)

        fe = frontend(caps=(8, 8))
        fe.handle_request({"op": "submit", "jobs": [
            job("x", demand=(8, 8), duration=1e307),
            job("y", demand=(8, 8), duration=1e308),
        ]})
        r = strict(fe.handle_request({"op": "flush"}))
        assert r["admitted"] == ["x"]
        assert [(e["id"], e["error"]) for e in r["errors"]] == [("y", "admission_failed")]
        r = strict(fe.handle_request({"op": "drain"}))
        assert r["clock"] == r["makespan"] == 1e307
        strict(fe.handle_request({"op": "checkpoint"}))

    def test_per_job_errors_do_not_block_the_batch(self):
        fe = frontend()
        fe.handle_request(
            {"op": "submit", "jobs": [job("a"), job("bad", demand=(99,)), job("c")]}
        )
        r = fe.handle_request({"op": "flush"})
        assert r["admitted"] == ["a", "c"]
        assert [e["id"] for e in r["errors"]] == ["bad"]

    def test_bad_config_rejected(self):
        with pytest.raises(ValueError, match="batch size"):
            frontend(batch_size=0)
        with pytest.raises(ValueError, match="batch interval"):
            frontend(batch_interval=-1.0)


class TestFairSharing:
    def test_weighted_admission_interleaving(self):
        fe = frontend(caps=(1,))
        fe.handle_request({"op": "tenant", "name": "big", "weight": 2.0})
        jobs = [job(f"s{i}", tenant="small") for i in range(3)] + [
            job(f"b{i}", tenant="big") for i in range(6)
        ]
        fe.handle_request({"op": "submit", "jobs": jobs})
        admitted = fe.handle_request({"op": "flush"})["admitted"]
        # weight 2 tenant admits two jobs per one of the weight-1 tenant,
        # FIFO within each tenant
        assert admitted == ["b0", "s0", "b1", "b2", "s1", "b3", "b4", "s2", "b5"]
        # admission order == dispatch order on a 1-unit platform
        fe.handle_request({"op": "drain"})
        sched = fe.session.to_schedule()
        run_order = sorted(sched.placements, key=lambda j: sched.placements[j].start)
        assert run_order == admitted

    def test_idle_tenant_cannot_hoard_share(self):
        fe = frontend()
        fe.handle_request({"op": "submit", "jobs": [job(f"a{i}", tenant="A") for i in range(4)]})
        fe.handle_request({"op": "flush"})
        # B was idle the whole time; it re-enters at the virtual floor, not 0
        fe.handle_request(
            {"op": "submit", "jobs": [job("b0", tenant="B"), job("a4", tenant="A")]}
        )
        admitted = fe.handle_request({"op": "flush"})["admitted"]
        # B re-enters level with A (tie broken by name), not with banked debt
        # that would let it flood the batch
        assert admitted == ["a4", "b0"]
        status = fe.handle_request({"op": "status"})
        assert status["tenants"]["B"]["vtime"] >= status["tenants"]["A"]["vtime"] - 1.0

    def test_invalid_weight(self):
        fe = frontend()
        r = fe.handle_request({"op": "tenant", "name": "x", "weight": 0})
        assert not r["ok"] and r["error"] == "invalid_request"
        assert "positive" in r["detail"]

    def test_cross_tenant_dependency_in_one_call_admits(self):
        # tenant interleaving puts 'anna' before 'zoe' in the fair order,
        # but zoe's job is the predecessor — the flush retries the orphan
        # after the rest instead of rejecting it
        fe = frontend()
        fe.handle_request(
            {
                "op": "submit",
                "jobs": [
                    job("root", tenant="zoe"),
                    job("kid", tenant="anna", preds=["root"]),
                ],
            }
        )
        r = fe.handle_request({"op": "flush"})
        assert sorted(r["admitted"]) == ["kid", "root"] and "errors" not in r


class TestProtocol:
    def test_unknown_op_and_malformed_requests(self):
        fe = frontend()
        assert not fe.handle_request({"op": "warp"})["ok"]
        assert not fe.handle_request({"no": "op"})["ok"]
        assert not fe.handle_request({"op": "submit", "jobs": "nope"})["ok"]

    def test_structurally_malformed_payloads_never_kill_the_service(self):
        fe = frontend()
        for req in (
            {"op": "submit", "jobs": [{"id": "a", "demand": 3, "duration": 1.0}]},
            {"op": "submit", "jobs": [None]},
            {"op": "submit", "jobs": [{"id": ["l"], "demand": [1], "duration": 1.0}]},
            {"op": "submit", "jobs": [{"id": "p", "demand": [1], "duration": 1.0,
                                       "preds": [["x"]]}]},
            {"op": "submit", "jobs": [{"id": "d", "demand": [1], "duration": "soon"}]},
            {"op": "advance", "until": [1]},
            {"op": "tenant", "name": "x", "weight": {}},
            {"op": "cancel", "id": ["a"]},
            {"op": "submit", "jobs": [{"id": "z", "demand": [1], "duration": 1.0,
                                       "preds": "j10"}]},
            {"op": "checkpoint", "path": 1},  # int path = raw fd 1 (stdout!)
            {"op": "trace", "path": 1},
            {"op": "restore", "path": 1},
            {"op": "restore", "snapshot": [1, 2]},
        ):
            r = fe.handle_request(req)
            assert not r["ok"] and "error" in r, req
            # nothing half-buffered: a rejected submit buffers none of its jobs
            assert fe.handle_request({"op": "status"})["buffered"] == 0
        # the service is still alive and consistent afterwards
        fe.handle_request({"op": "submit", "jobs": [job("ok")]})
        assert fe.handle_request({"op": "drain"})["completed"] == 1

    def test_whole_amounts_are_served_as_asked(self):
        fe = frontend(caps=(4, 4))
        fe.handle_request({"op": "submit", "jobs": [job("a", demand=(2.0, 1))]})
        assert fe.handle_request({"op": "drain"})["completed"] == 1
        (placed,) = fe.session.to_schedule().placements.values()
        assert tuple(placed.alloc) == (2, 1)

    def test_malformed_job_after_interval_does_not_crash_later_requests(self):
        # an unhashable/bad record must never wedge the batch clock: every
        # subsequent request (incl. the pre-op batch check) keeps answering
        clock = [0.0]
        fe = ServiceFrontend(
            SchedulingSession([4]),
            batch_size=100,
            batch_interval=1.0,
            clock=lambda: clock[0],
        )
        r = fe.handle_request(
            {"op": "submit", "jobs": [{"id": ["weird"], "demand": [1], "duration": 1.0}]}
        )
        assert not r["ok"]
        clock[0] = 5.0
        for _ in range(2):
            assert fe.handle_request({"op": "status"})["ok"]

    def test_restore_guard_is_not_bypassed_by_a_due_batch(self, tmp_path):
        from repro.service import save_session

        ck = tmp_path / "ck.json"
        save_session(SchedulingSession([4]), str(ck))
        clock = [0.0]
        fe = ServiceFrontend(
            SchedulingSession([4]),
            batch_size=100,
            batch_interval=1.0,
            clock=lambda: clock[0],
        )
        fe.handle_request({"op": "submit", "jobs": [job("precious")]})
        clock[0] = 10.0  # the buffer is long past due
        r = fe.handle_request({"op": "restore", "path": str(ck)})
        # the buffered job must NOT be flushed into the session about to be
        # discarded: restore refuses and the job survives
        assert not r["ok"] and "buffered" in r["detail"]
        assert fe.handle_request({"op": "flush"})["admitted"] == ["precious"]

    def test_cancel_does_not_age_younger_buffered_jobs(self):
        clock = [0.0]
        fe = ServiceFrontend(
            SchedulingSession([4]),
            batch_size=100,
            batch_interval=1.0,
            clock=lambda: clock[0],
        )
        fe.handle_request({"op": "submit", "jobs": [job("old")]})
        clock[0] = 0.9
        fe.handle_request({"op": "submit", "jobs": [job("young")]})
        fe.handle_request({"op": "cancel", "id": "old"})
        clock[0] = 1.1  # past old's deadline, but young has waited only 0.2
        r = fe.handle_request({"op": "status"})
        assert "admitted_by_batch" not in r and r["buffered"] == 1
        clock[0] = 1.95  # now young itself has waited past the interval
        r = fe.handle_request({"op": "status"})
        assert r["admitted_by_batch"] == ["young"]

    def test_cancel_buffered_and_admitted(self):
        fe = frontend()
        fe.handle_request({"op": "submit", "jobs": [job("a"), job("kid", preds=["a"])]})
        r = fe.handle_request({"op": "cancel", "id": "kid"})
        assert r["cancelled"] == ["kid"] and r["buffered"] is True
        fe.handle_request({"op": "flush"})
        r = fe.handle_request({"op": "cancel", "id": "a"})
        assert r["cancelled"] == ["a"] and r["buffered"] is False
        assert not fe.handle_request({"op": "cancel", "id": "ghost"})["ok"]

    def test_cancel_admitted_cascades_into_buffers(self):
        fe = frontend()
        fe.handle_request({"op": "submit", "jobs": [job("root", duration=5.0)]})
        fe.handle_request({"op": "flush"})
        fe.handle_request({"op": "submit", "jobs": [job("kid", preds=["root"])]})
        r = fe.handle_request({"op": "cancel", "id": "root"})
        # the admitted root cascades through the still-buffered dependent
        assert r["cancelled"] == ["root", "kid"] and r["buffered"] is False
        r = fe.handle_request({"op": "drain"})
        assert r["completed"] == 0 and "admission_errors" not in r

    def test_prune_events(self):
        fe = frontend()
        fe.handle_request({"op": "submit", "jobs": [job("a"), job("b", release=9.0)]})
        fe.handle_request({"op": "flush"})
        fe.handle_request({"op": "cancel", "id": "b"})
        fe.handle_request({"op": "drain"})
        r = fe.handle_request({"op": "prune"})
        assert r["dropped"] > 0 and r["events"] == 1  # the cancellation stays
        trace = fe.handle_request({"op": "trace"})["trace"]
        assert [c["id"] for c in trace["cancelled"]] == ["'b'"]

    def test_cancel_buffered_cascades_through_buffers(self):
        fe = frontend()
        fe.handle_request(
            {
                "op": "submit",
                "jobs": [
                    job("root"),
                    job("mid", preds=["root"], tenant="other"),
                    job("leaf", preds=["mid"]),
                    job("bystander"),
                ],
            }
        )
        r = fe.handle_request({"op": "cancel", "id": "root"})
        assert sorted(r["cancelled"]) == ["leaf", "mid", "root"]
        r = fe.handle_request({"op": "flush"})
        assert r["admitted"] == ["bystander"] and "errors" not in r

    def test_implicit_flush_errors_are_surfaced(self):
        fe = frontend()
        fe.handle_request({"op": "submit", "jobs": [job("orphan", preds=["ghost"])]})
        r = fe.handle_request({"op": "advance", "until": 1.0})
        assert r["ok"] and [e["id"] for e in r["admission_errors"]] == ["orphan"]
        fe.handle_request({"op": "submit", "jobs": [job("orphan2", preds=["ghost"])]})
        r = fe.handle_request({"op": "drain"})
        assert [e["id"] for e in r["admission_errors"]] == ["orphan2"]

    def test_status_validate_trace(self, tmp_path):
        fe = frontend(caps=(4, 4))
        fe.handle_request({"op": "submit", "jobs": [job("a", demand=(2, 1))]})
        fe.handle_request({"op": "drain"})
        status = fe.handle_request({"op": "status"})
        assert status["states"]["done"] == 1 and status["buffered"] == 0
        assert fe.handle_request({"op": "validate"})["valid"]
        path = tmp_path / "trace.json"
        fe.handle_request({"op": "trace", "path": str(path)})
        trace = json.loads(path.read_text())
        assert trace["version"] == 3 and len(trace["jobs"]) == 1
        inline = fe.handle_request({"op": "trace"})
        assert inline["trace"]["makespan"] == trace["makespan"]

    def test_checkpoint_restore_roundtrip(self, tmp_path):
        fe = frontend(caps=(4,))
        fe.handle_request({"op": "submit", "jobs": [job("a", duration=2.0)]})
        fe.handle_request({"op": "advance", "until": 1.0})
        path = tmp_path / "ck.json"
        assert fe.handle_request({"op": "checkpoint", "path": str(path)})["ok"]
        inline = fe.handle_request({"op": "checkpoint"})["snapshot"]

        for req in ({"op": "restore", "path": str(path)}, {"op": "restore", "snapshot": inline}):
            fe2 = frontend(caps=(4,))
            r = fe2.handle_request(req)
            assert r["ok"] and r["clock"] == 1.0 and r["jobs"] == 1
            assert fe2.handle_request({"op": "drain"})["makespan"] == 2.0

        fe3 = frontend(caps=(4,))
        fe3.handle_request({"op": "submit", "jobs": [job("pending")]})
        r = fe3.handle_request({"op": "restore", "path": str(path)})
        assert not r["ok"] and "buffered" in r["detail"]
        assert not frontend().handle_request({"op": "restore"})["ok"]


class TestTransports:
    def test_stdio_loop(self):
        requests = [
            {"op": "submit", "jobs": [job("x", demand=(2,), duration=1.5)]},
            {"op": "drain"},
            "this is not json",
            {"op": "shutdown"},
            {"op": "never-reached"},
        ]
        lines = "\n".join(
            r if isinstance(r, str) else json.dumps(r) for r in requests
        ) + "\n"
        out = io.StringIO()
        code = serve_stdio(frontend(batch_size=1), io.StringIO(lines), out)
        assert code == 0
        responses = [json.loads(line) for line in out.getvalue().splitlines()]
        assert len(responses) == 4  # the post-shutdown line is never read
        assert responses[0]["admitted"] == ["x"]
        assert responses[1]["makespan"] == 1.5
        assert not responses[2]["ok"] and responses[2]["error"] == "invalid_request"
        assert "bad JSON" in responses[2]["detail"]
        assert responses[3]["op"] == "shutdown"

    def test_stdio_eof_is_clean(self):
        out = io.StringIO()
        assert serve_stdio(frontend(), io.StringIO(""), out) == 0
        assert out.getvalue() == ""

    def test_tcp_roundtrip(self):
        fe = frontend(batch_size=1)
        ready = threading.Event()
        announced = []
        t = threading.Thread(target=serve_tcp, args=(fe, "127.0.0.1", 0),
                             kwargs={"ready": ready, "on_bound": announced.append},
                             daemon=True)
        t.start()
        assert ready.wait(5.0)
        assert announced == [ready.port]  # port=0: the callback reports the pick
        with socket.create_connection(("127.0.0.1", ready.port), timeout=5.0) as sock:
            fh = sock.makefile("rw", encoding="utf-8")
            for req in (
                {"op": "submit", "jobs": [job("a", duration=2.5)]},
                {"op": "drain"},
                {"op": "shutdown"},
            ):
                fh.write(json.dumps(req) + "\n")
                fh.flush()
                resp = json.loads(fh.readline())
                assert resp["ok"], resp
                if req["op"] == "drain":
                    assert resp["makespan"] == 2.5
        t.join(timeout=5.0)
        assert not t.is_alive()


def _durable_frontend(tmp_path, caps=(4,), **kw):
    from repro.service.journal import JournaledSession

    durable = JournaledSession.recover(
        str(tmp_path / "j.jsonl"), str(tmp_path / "snap.json"),
        capacities=list(caps), fsync=False,
    )
    kw.setdefault("batch_size", 100)
    kw.setdefault("batch_interval", 9999.0)
    return ServiceFrontend(durable=durable, **kw)


class TestBackpressure:
    def test_per_tenant_buffer_bound(self):
        fe = frontend(max_pending=2)
        resp = fe.handle_request(
            {"op": "submit", "jobs": [job("a"), job("b"), job("c")]}
        )
        assert resp["ok"] and resp["backpressure"] == ["c"]
        assert resp["buffered"] == 2

    def test_bound_is_per_tenant_not_global(self):
        fe = frontend(max_pending=1)
        resp = fe.handle_request(
            {"op": "submit", "jobs": [
                job("a", tenant="t1"), job("b", tenant="t2"), job("c", tenant="t1"),
            ]}
        )
        assert resp["backpressure"] == ["c"]  # only t1 is full
        assert resp["buffered"] == 2

    def test_flush_clears_the_bound(self):
        fe = frontend(max_pending=1)
        assert "backpressure" not in fe.handle_request(
            {"op": "submit", "jobs": [job("a")]}
        )
        assert fe.handle_request({"op": "flush"})["admitted"] == ["a"]
        assert "backpressure" not in fe.handle_request(
            {"op": "submit", "jobs": [job("b")]}
        )

    def test_validation_still_first(self):
        with pytest.raises(ValueError, match="max_pending"):
            frontend(max_pending=0)


class TestAdversarialInput:
    def _serve(self, text, fe=None, **kw):
        out = io.StringIO()
        code = serve_stdio(fe or frontend(batch_size=1), io.StringIO(text), out, **kw)
        assert code == 0
        return [json.loads(line) for line in out.getvalue().splitlines()]

    def test_oversized_line_is_refused_and_stream_resyncs(self):
        huge = json.dumps({"op": "submit", "jobs": [job("x" * 200)]})
        text = huge + "\n" + json.dumps({"op": "status"}) + "\n"
        responses = self._serve(text, max_request_bytes=64)
        assert len(responses) == 2
        assert not responses[0]["ok"] and responses[0]["error"] == "invalid_request"
        assert "exceeds 64 bytes" in responses[0]["detail"]
        assert responses[1]["ok"] and responses[1]["op"] == "status"

    def test_non_object_json_is_an_error_response(self):
        for payload in ("[1, 2, 3]", '"drain"', "42", "null", "{}"):
            (resp,) = self._serve(payload + "\n")
            assert not resp["ok"], payload

    def test_unknown_op_and_malformed_payloads_never_kill_the_loop(self):
        text = "\n".join([
            json.dumps({"op": "teleport"}),
            json.dumps({"op": "submit", "jobs": 7}),
            json.dumps({"op": "submit", "jobs": [{"demand": "wat"}]}),
            json.dumps({"op": "advance"}),  # missing 'until'
            json.dumps({"op": "advance", "until": "soon"}),
            json.dumps({"op": "tenant", "name": "t", "weight": "heavy"}),
            json.dumps({"op": "status"}),
        ]) + "\n"
        responses = self._serve(text)
        assert [r["ok"] for r in responses] == [False] * 6 + [True]

    def test_handler_bug_becomes_internal_error_response(self, monkeypatch):
        fe = frontend()
        monkeypatch.setattr(
            ServiceFrontend, "_op_status",
            lambda self, req: 1 / 0, raising=True,
        )
        responses = self._serve(
            json.dumps({"op": "status"}) + "\n" + json.dumps({"op": "drain"}) + "\n",
            fe=fe,
        )
        assert not responses[0]["ok"] and responses[0]["error"] == "internal"
        assert "ZeroDivisionError" in responses[0]["detail"]
        assert responses[1]["ok"]  # the loop survived the bug

    def test_stdio_reader_disappearing_is_a_clean_exit(self):
        class Gone(io.StringIO):
            def write(self, s):
                raise OSError("broken pipe")

        code = serve_stdio(
            frontend(), io.StringIO(json.dumps({"op": "status"}) + "\n"), Gone()
        )
        assert code == 0

    def _tcp_server(self):
        fe = frontend(batch_size=1)
        ready = threading.Event()
        t = threading.Thread(
            target=serve_tcp, args=(fe, "127.0.0.1", 0),
            kwargs={"ready": ready, "max_request_bytes": 64}, daemon=True,
        )
        t.start()
        assert ready.wait(5.0)
        return fe, ready.port, t

    def test_tcp_survives_bad_bytes_disconnects_and_oversized_lines(self):
        fe, port, t = self._tcp_server()
        # connection 1: invalid UTF-8, then an oversized line, then hangs up
        # mid-request — all isolated to this connection
        with socket.create_connection(("127.0.0.1", port), timeout=5.0) as sock:
            fh = sock.makefile("rwb")
            fh.write(b'{"op": "\xff\xfe"}\n')
            fh.flush()
            assert b"invalid UTF-8" in fh.readline()
            fh.write(b"x" * 500 + b"\n")
            fh.flush()
            assert b"exceeds 64 bytes" in fh.readline()
            fh.write(b'{"op": "stat')  # no newline: die mid-request
            fh.flush()
        # connection 2: the server is still fine
        with socket.create_connection(("127.0.0.1", port), timeout=5.0) as sock:
            fh = sock.makefile("rw", encoding="utf-8")
            fh.write(json.dumps({"op": "status"}) + "\n")
            fh.flush()
            assert json.loads(fh.readline())["ok"]
            fh.write(json.dumps({"op": "shutdown"}) + "\n")
            fh.flush()
            assert json.loads(fh.readline())["ok"]
        t.join(timeout=5.0)
        assert not t.is_alive()


class TestDurableFrontend:
    def test_mutations_are_journaled_and_recoverable(self, tmp_path):
        from repro.conformance.fuzz import portable_events
        from repro.service.journal import JournaledSession, scan_journal

        fe = _durable_frontend(tmp_path, caps=(4,))
        fe.handle_request({"op": "submit", "jobs": [job("a"), job("b", preds=["a"])]})
        fe.handle_request({"op": "flush"})
        fe.handle_request({"op": "cancel", "id": "b"})
        fe.handle_request({"op": "advance", "until": 0.5})
        _, records, _ = scan_journal(str(tmp_path / "j.jsonl"))
        assert [r["op"] for r in records] == ["submit", "cancel", "advance"]
        fe.durable.journal.close()  # crash: drop the in-memory session

        recovered = JournaledSession.recover(
            str(tmp_path / "j.jsonl"), str(tmp_path / "snap.json"), fsync=False
        )
        assert recovered.replayed == 3
        recovered.drain()
        fe.durable.session.drain()
        assert portable_events(
            recovered.session.to_schedule(), reprify=False
        ) == portable_events(fe.durable.session.to_schedule(), reprify=False)

    def test_batched_flush_is_one_journal_record(self, tmp_path):
        from repro.service.journal import scan_journal

        fe = _durable_frontend(tmp_path)
        fe.handle_request(
            {"op": "submit", "jobs": [job("a"), job("b"), job("c")]}
        )
        fe.handle_request({"op": "flush"})
        _, records, _ = scan_journal(str(tmp_path / "j.jsonl"))
        assert len(records) == 1
        assert [j["id"] for j in records[0]["jobs"]] == ["a", "b", "c"]

    def test_rejected_jobs_never_reach_the_journal(self, tmp_path):
        from repro.service.journal import scan_journal

        fe = _durable_frontend(tmp_path)
        fe.handle_request(
            {"op": "submit", "jobs": [job("a"), job("ghostdep", preds=["nope"])]}
        )
        resp = fe.handle_request({"op": "flush"})
        assert resp["admitted"] == ["a"] and resp["errors"]
        _, records, _ = scan_journal(str(tmp_path / "j.jsonl"))
        assert [j["id"] for rec in records for j in rec["jobs"]] == ["a"]

    def test_status_reports_journal_and_pid(self, tmp_path):
        fe = _durable_frontend(tmp_path)
        fe.handle_request({"op": "submit", "jobs": [job("a")]})
        fe.handle_request({"op": "flush"})
        status = fe.handle_request({"op": "status"})
        assert status["pid"] == __import__("os").getpid()
        assert status["restarts"] == 0
        assert status["journal"]["records"] == 1
        assert status["journal"]["applied_seq"] == 1

    def test_explicit_checkpoint_rotates_journal(self, tmp_path):
        from repro.service.journal import scan_journal

        fe = _durable_frontend(tmp_path)
        fe.handle_request({"op": "submit", "jobs": [job("a")]})
        fe.handle_request({"op": "flush"})
        resp = fe.handle_request({"op": "checkpoint"})
        assert resp["journal_rotated"]
        header, records, _ = scan_journal(str(tmp_path / "j.jsonl"))
        assert header["base_seq"] == 1 and records == []

    def test_restore_adopts_new_lineage(self, tmp_path):
        from repro.service.journal import scan_journal

        fe = _durable_frontend(tmp_path, caps=(4,))
        fe.handle_request({"op": "submit", "jobs": [job("a")]})
        fe.handle_request({"op": "drain"})
        donor = SchedulingSession([4])
        donor.submit([JobSpec("z", (1,), 2.0)])
        snap = fe.handle_request({"op": "checkpoint"})  # rotate first
        from repro.service.checkpoint import checkpoint_session

        resp = fe.handle_request(
            {"op": "restore", "snapshot": checkpoint_session(donor)}
        )
        assert resp["ok"] and fe.session is fe.durable.session
        header, _, _ = scan_journal(str(tmp_path / "j.jsonl"))
        assert header["base_seq"] == fe.session.applied_seq
        assert snap["ok"]

    def test_durable_session_mismatch_rejected(self, tmp_path):
        from repro.service.journal import JournaledSession

        durable = JournaledSession.recover(
            str(tmp_path / "j.jsonl"), str(tmp_path / "snap.json"),
            capacities=[4], fsync=False,
        )
        with pytest.raises(ValueError, match="same object"):
            ServiceFrontend(SchedulingSession([4]), durable=durable)
