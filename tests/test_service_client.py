"""Tests for the typed service client: the v2 envelope, typed errors,
reconnect/resend."""

import json
import threading
import time

import pytest
from helpers import scripted_tcp_server

from repro.service import (
    Backpressure,
    Disconnected,
    SchedulingSession,
    ServiceClient,
    ServiceError,
    ServiceFrontend,
    serve_tcp,
)
from repro.service.client import _TcpTransport, pick_free_port
from repro.service.frontend import _handle_line


class _LoopbackTransport:
    """A transport that answers from an in-process frontend, recording
    every wire line it sends — lets the tests inspect the exact JSON a
    client version puts on the wire."""

    reconnectable = False

    def __init__(self, frontend):
        self.frontend = frontend
        self.sent = []
        self._responses = []
        self.proc = None

    def send_line(self, line):
        self.sent.append(json.loads(line))
        self._responses.append(json.dumps(_handle_line(self.frontend, line)))

    def recv_line(self):
        return self._responses.pop(0)

    def close(self):
        pass


def loopback(caps=(8,), **fe_kw):
    fe_kw.setdefault("batch_size", 100)
    fe_kw.setdefault("batch_interval", 9999.0)
    fe = ServiceFrontend(SchedulingSession(caps), **fe_kw)
    transport = _LoopbackTransport(fe)
    return ServiceClient(transport), transport


def job(jid, demand=(1,), duration=1.0, **kw):
    return {"id": jid, "demand": list(demand), "duration": duration, **kw}


class TestWireVersions:
    def test_v2_requests_carry_an_incrementing_rid(self):
        client, t = loopback()
        client.status()
        client.status()
        assert [w["rid"] for w in t.sent] == [1, 2]
        assert all(w["v"] == 2 for w in t.sent)

    def test_v2_envelope_is_stripped_from_the_returned_body(self):
        client, _ = loopback()
        resp = client.status()
        assert resp["ok"] and "v" not in resp and "rid" not in resp

    def test_round_trip_both_versions_same_result(self):
        """The client speaks v2 only; a bare v1 line sent to the same kind
        of front-end gets the same body, without the envelope."""
        client, t = loopback()
        _, bare = loopback()
        requests = [{"op": "submit", "jobs": [job("a")]}, {"op": "flush"},
                    {"op": "drain"}]
        for request in requests:
            body = client.exchange(request)
            bare.send_line(json.dumps(request))
            reply = json.loads(bare.recv_line())
            assert "v" not in reply and "rid" not in reply
            assert reply == body
        assert body["completed"] == 1 and body["makespan"] == 1.0
        assert all(w["v"] == 2 for w in t.sent)

    def test_stale_rid_responses_are_skipped(self):
        client, t = loopback()

        real_send = t.send_line

        def send_with_stale_prefix(line):
            req = json.loads(line)
            t.sent.append(req)
            stale = {"v": 2, "rid": req["rid"] - 1, "ok": True, "op": "stale"}
            t._responses.append(json.dumps(stale))
            t._responses.append(json.dumps(_handle_line(t.frontend, line)))

        t.send_line = send_with_stale_prefix
        resp = client.status()
        assert resp["op"] == "status"  # not the stale echo
        t.send_line = real_send


    def test_a_rid_less_reply_answers_the_pending_request(self):
        """A transport-level error (bad JSON, oversized line) comes back
        without a rid; it answers the request in flight, it is not
        skipped as stale."""
        client, t = loopback()

        def refuse(line):
            t.sent.append(json.loads(line))
            t._responses.append(json.dumps(
                {"ok": False, "error": "invalid_request", "detail": "too long"}
            ))

        t.send_line = refuse
        resp = client.exchange({"op": "status"})
        assert resp == {"ok": False, "error": "invalid_request", "detail": "too long"}
        assert t.sent[0]["rid"] == 1


class TestTypedErrors:
    def test_ok_false_raises_service_error_with_code_and_detail(self):
        client, _ = loopback()
        with pytest.raises(ServiceError) as exc:
            client.request("advance", until=-1.0)
        assert exc.value.code == "invalid_request"
        assert "cannot advance backwards" in exc.value.detail
        assert exc.value.op == "advance"
        assert exc.value.response["error"] == "invalid_request"

    def test_unknown_op_is_invalid_request(self):
        client, _ = loopback()
        with pytest.raises(ServiceError) as exc:
            client.request("frobnicate")
        assert exc.value.code == "invalid_request"

    def test_backpressure_raises_with_the_refused_ids(self):
        client, _ = loopback(max_pending=1)
        with pytest.raises(Backpressure) as exc:
            client.submit([job("a"), job("b"), job("c")])
        assert exc.value.code == "backpressure"
        assert exc.value.refused == ["b", "c"]
        # the first job was still buffered — flush admits it
        assert client.flush()["admitted"] == ["a"]

    def test_submit_raises_backpressure_even_on_ok_responses(self):
        # an ok submit that sheds some jobs still surfaces as Backpressure
        client, t = loopback()
        real = t.send_line

        def shed(line):
            real(line)
            resp = json.loads(t._responses.pop())
            resp["backpressure"] = ["b"]
            t._responses.append(json.dumps(resp))

        t.send_line = shed
        with pytest.raises(Backpressure) as exc:
            client.submit([job("a"), job("b")])
        assert exc.value.refused == ["b"]

    def test_error_hierarchy(self):
        assert issubclass(Backpressure, ServiceError)
        assert issubclass(Disconnected, ServiceError)


class TestTypedVerbs:
    def test_full_session_through_typed_verbs(self, tmp_path):
        client, _ = loopback(caps=(4, 4))
        assert client.tenant("batchy", 2.0)["weight"] == 2.0
        client.submit([
            job("prep", demand=(2, 1), duration=2.0, tenant="batchy"),
            job("train", demand=(4, 2), duration=3.0, preds=["prep"],
                tenant="batchy"),
            job("doomed", demand=(1, 1), duration=9.0, release=4.0,
                tenant="lab"),
        ])
        assert sorted(client.flush()["admitted"]) == ["doomed", "prep", "train"]
        adv = client.advance(1.5)
        assert adv["clock"] == 1.5 and adv["events"]
        assert client.cancel("doomed")["cancelled"] == ["doomed"]
        ck = str(tmp_path / "ck.json")
        assert client.checkpoint(ck)["path"] == ck
        assert client.restore(path=ck)["ok"]
        drain = client.drain()
        assert drain["completed"] == 2
        assert client.validate()["valid"]
        assert client.status()["jobs"] == 3  # cancelled jobs still counted
        assert client.stats()["completed"] == 2
        assert client.shutdown()["ok"]


class TestTcpReconnect:
    def _serve(self, **fe_kw):
        fe_kw.setdefault("batch_size", 1)
        fe = ServiceFrontend(SchedulingSession((4,)), **fe_kw)
        ready = threading.Event()
        t = threading.Thread(target=serve_tcp, args=(fe, "127.0.0.1", 0),
                             kwargs={"ready": ready}, daemon=True)
        t.start()
        assert ready.wait(5.0)
        return ready.port, t

    def test_connect_and_round_trip_over_tcp(self):
        port, t = self._serve()
        with ServiceClient.connect("127.0.0.1", port, connect_deadline=10.0) as client:
            assert client.submit([job("a")])["admitted"] == ["a"]
            assert client.drain()["completed"] == 1
            assert client.shutdown()["ok"]
        t.join(timeout=5.0)

    def test_dropped_connection_is_resent_within_the_retry_deadline(self):
        port, t = self._serve()
        client = ServiceClient.connect(
            "127.0.0.1", port, connect_deadline=10.0, retry_deadline=10.0
        )
        assert client.status()["ok"]
        client.transport.drop()  # simulate the peer vanishing mid-session
        assert client.status()["ok"]  # reconnected + resent transparently
        client.shutdown()
        client.close()
        t.join(timeout=5.0)

    def test_without_retry_deadline_a_drop_is_disconnected(self):
        port, t = self._serve()
        client = ServiceClient.connect("127.0.0.1", port, connect_deadline=10.0)
        client.transport.drop()
        with pytest.raises(Disconnected):
            client.status()
        # the transport can still be reconnected by hand and shut down
        client.transport.connect(time.monotonic() + 5.0)
        client.shutdown()
        client.close()
        t.join(timeout=5.0)

    def test_undecodable_reply_drops_the_connection_before_the_resend(self):
        """The reply is not JSON: nothing on that stream can be trusted any
        more.  ``connect()`` used to overwrite the live socket — leaked, its
        unread bytes still pending — instead of closing it first."""

        def garbage(fh):
            fh.readline()
            fh.write("\x00not json\n")
            fh.flush()

        def honest(fh):
            rid = json.loads(fh.readline())["rid"]
            fh.write(json.dumps({"v": 2, "rid": rid, "ok": True, "op": "status"}) + "\n")
            fh.flush()

        port, t = scripted_tcp_server(garbage, honest)
        client = ServiceClient.connect(
            "127.0.0.1", port, connect_deadline=10.0, retry_deadline=10.0
        )
        first = client.transport._sock
        assert client.status() == {"ok": True, "op": "status"}  # the resend
        assert first.fileno() == -1 and client.transport._sock is not first
        client.close()
        t.join(timeout=5.0)
        assert not t.is_alive()

    def test_stale_rid_reply_is_skipped_after_a_reconnect(self):
        """The first connection dies with the request unanswered; on the
        resend the peer first replays a reply to an older rid, which must
        not be taken for this request's answer."""

        def vanish(fh):
            fh.readline()  # reads the request, dies without answering

        def stale_then_real(fh):
            rid = json.loads(fh.readline())["rid"]  # the resend: same rid
            for reply in ({"v": 2, "rid": rid - 1, "ok": True, "op": "stale"},
                          {"v": 2, "rid": rid, "ok": True, "op": "status"}):
                fh.write(json.dumps(reply) + "\n")
            fh.flush()

        port, t = scripted_tcp_server(vanish, stale_then_real)
        client = ServiceClient.connect(
            "127.0.0.1", port, connect_deadline=10.0, retry_deadline=10.0
        )
        assert client.status() == {"ok": True, "op": "status"}
        client.close()
        t.join(timeout=5.0)
        assert not t.is_alive()

    def test_nothing_connects_before_the_first_exchange(self):
        """A client over a never-connected TCP transport can be built
        before its server listens: the first exchange with a deadline
        connects it."""
        port = pick_free_port()  # nothing listens yet
        client = ServiceClient(_TcpTransport("127.0.0.1", port))
        assert client.transport._sock is None
        fe = ServiceFrontend(SchedulingSession((4,)), batch_size=1)
        ready = threading.Event()
        t = threading.Thread(target=serve_tcp, args=(fe, "127.0.0.1", port),
                             kwargs={"ready": ready}, daemon=True)
        t.start()
        assert ready.wait(5.0)
        assert client.exchange({"op": "status"}, deadline=10.0)["ok"]
        client.exchange({"op": "shutdown"}, deadline=10.0)
        client.close()
        t.join(timeout=5.0)
        assert not t.is_alive()

    def test_an_unreachable_server_is_disconnected_once_the_deadline_passes(self):
        port = pick_free_port()  # bound-probed and released: nothing listens
        client = ServiceClient(_TcpTransport("127.0.0.1", port))
        t0 = time.monotonic()
        with pytest.raises(Disconnected, match="connect failed"):
            client.exchange({"op": "status"}, deadline=0.3)
        # retried until the deadline, not refused on the first attempt
        assert 0.3 <= time.monotonic() - t0 < 5.0

    def test_connect_to_a_dead_port_times_out(self):
        port = pick_free_port()
        with pytest.raises(Disconnected, match="connect failed"):
            ServiceClient.connect("127.0.0.1", port, connect_deadline=0.2)
