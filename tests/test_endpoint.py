"""The endpoint contract: what the wire promises.

:class:`repro.service.frontend.ServiceFrontend` writes the protocol once,
around one session.  The cases here pin the protocol decisions — the
envelope, batched admission, ``max_pending``, argument checks, implicit
flush reporting; session behaviour behind them (journaling, cancel
cascades, restore) stays in ``test_service_frontend.py``.
"""

import io
import json

import pytest
from helpers import strict_json as strict

from repro.service import SchedulingSession, ServiceFrontend, serve_stdio


def job(jid, demand=(1,), duration=1.0, **kw):
    return {"id": jid, "demand": list(demand), "duration": duration, **kw}


def make(kind, caps=(4,), **kw):
    """A ``ServiceFrontend`` over one session."""
    kw.setdefault("batch_size", 100)
    kw.setdefault("batch_interval", 9999.0)
    return ServiceFrontend(SchedulingSession(caps), **kw)


#: the one thing that answers the wire; the parameter keeps every case's
#: ``[frontend]`` id
@pytest.fixture(params=("frontend",))
def kind(request):
    return request.param


class TestContract:
    # -- the wire envelope ---------------------------------------------
    def test_v2_envelope_is_echoed(self, kind):
        ep = make(kind)
        resp = ep.handle_request({"v": 2, "rid": 41, "op": "status"})
        assert resp["ok"] and resp["v"] == 2 and resp["rid"] == 41
        # the rid is optional: without one the reply carries "v" only
        resp = ep.handle_request({"v": 2, "op": "status"})
        assert resp["ok"] and resp["v"] == 2 and "rid" not in resp

    def test_v1_bare_request_gets_bare_response(self, kind):
        resp = make(kind).handle_request({"op": "status"})
        assert resp["ok"] and "v" not in resp and "rid" not in resp

    def test_unsupported_version_is_refused(self, kind):
        resp = make(kind).handle_request({"v": 3, "rid": 1, "op": "status"})
        assert not resp["ok"] and resp["error"] == "invalid_request"
        assert "version" in resp["detail"]
        assert resp["v"] == 2 and resp["rid"] == 1  # still answered in kind

    def test_unknown_op_and_non_object_requests(self, kind):
        ep = make(kind)
        for req in ({"op": "warp"}, {"op": 7}, {"no": "op"}, {}, [1, 2], "drain",
                    42, None, {"v": 2, "rid": 9}, {"op": "submit", "jobs": "nope"}):
            resp = ep.handle_request(req)
            assert resp["ok"] is False and resp["error"] == "invalid_request", req
        assert ep.handle_request({"op": "status"})["buffered"] == 0
        # every one of them was counted, under its op or as "invalid"
        requests = ep.metrics.get("repro_requests_total")
        assert requests.value(op="invalid") == 8 and requests.value(op="warp") == 1

    # -- size-or-interval admission ------------------------------------
    def test_size_or_interval_admission_on_a_fake_clock(self, kind):
        clock = [0.0]
        ep = make(kind, batch_size=3, batch_interval=1.0, clock=lambda: clock[0])

        def submit(*ids):
            return ep.handle_request(
                {"op": "submit", "jobs": [job(i, tenant="t") for i in ids]}
            )

        # size: the third buffered job admits the batch
        assert "admitted" not in submit("a", "b")
        resp = submit("c")
        assert resp["admitted"] == ["a", "b", "c"] and resp["buffered"] == 0
        # interval: the *oldest* buffered job's wait decides, on a submit ...
        submit("d")
        clock[0] = 0.5
        assert "admitted" not in submit("e")
        clock[0] = 1.25
        assert submit("f")["admitted"] == ["d", "e", "f"]
        # ... and on any other request, reported as admitted_by_batch
        submit("g")
        clock[0] = 5.0
        resp = ep.handle_request({"op": "status"})
        assert resp["admitted_by_batch"] == ["g"]
        assert resp["jobs"] == 7 and resp["buffered"] == 0

    def test_max_pending_bounds_each_tenant(self, kind):
        ep = make(kind, max_pending=1)
        resp = ep.handle_request({"op": "submit", "jobs": [
            job("a", tenant="t"), job("b", tenant="t"), job("c", tenant="u"),
        ]})
        assert resp["ok"] and resp["backpressure"] == ["b"]  # only t is full
        assert resp["buffered"] == 2
        assert ep.handle_request({"op": "flush"})["admitted"] == ["a", "c"]
        # a flush clears the bound
        resp = ep.handle_request({"op": "submit", "jobs": [job("b", tenant="t")]})
        assert "backpressure" not in resp

    def test_every_job_an_endpoint_decides_on_is_counted(self, kind):
        """Admitted, refused by the backend, or refused by ``max_pending``:
        each lands in ``repro_admission_outcomes_total``."""
        ep = make(kind, max_pending=2)
        ep.handle_request({"op": "submit", "jobs": [
            job("a", tenant="t"), job("big", demand=(9,), tenant="t"),
            job("over", tenant="t"), job("b", tenant="u"),
        ]})
        resp = ep.handle_request({"op": "flush"})
        assert sorted(resp["admitted"]) == ["a", "b"]
        assert [e["id"] for e in resp["errors"]] == ["big"]
        counted = ep.metrics.get("repro_admission_outcomes_total").samples()
        assert dict(counted) == {
            ("admitted",): 2, ("admission_failed",): 1, ("backpressure",): 1,
        }
        assert 'repro_admission_outcomes_total{outcome="backpressure"} 1' \
            in ep.handle_request({"op": "metrics"})["text"]

    def test_bad_constructor_arguments(self, kind):
        with pytest.raises(ValueError, match="batch size"):
            make(kind, batch_size=0)
        with pytest.raises(ValueError, match="batch interval"):
            make(kind, batch_interval=-1.0)
        with pytest.raises(ValueError, match="max_pending"):
            make(kind, max_pending=0)

    # -- argument checks -----------------------------------------------
    def test_spans_limit_and_path_type_checks(self, kind):
        ep = make(kind)
        ep.handle_request({"op": "submit", "jobs": [job("a")]})
        for bad in (-1, True, "3", 1.5):
            resp = ep.handle_request({"op": "spans", "limit": bad})
            assert not resp["ok"] and resp["error"] == "invalid_request", bad
            assert "non-negative integer" in resp["detail"]
        for good in (1, None):
            assert ep.handle_request({"op": "spans", "limit": good})["spans"]
        # an int path would reach open() as a raw fd (1 = the response stream)
        for op in ("checkpoint", "trace"):
            resp = ep.handle_request({"op": op, "path": 1})
            assert not resp["ok"] and resp["error"] == "invalid_request"
            assert "path must be a string" in resp["detail"]
        # refused before the flush those ops would have done
        assert ep.handle_request({"op": "status"})["buffered"] == 1

    @pytest.mark.parametrize("literal", ["true", "Infinity", "1e-320"])
    def test_weight_that_breaks_the_stride_is_refused(self, kind, literal):
        """``true`` is not the weight 1.0; ``Infinity`` gives a stride step
        of 0 (the tenant's whole buffer drains first, and ``status`` stops
        being JSON); ``1e-320`` a step of ``inf`` (the virtual floor goes to
        ``inf`` and fair sharing ends for every tenant).  The endpoint's
        queue is the authoritative copy of the weights: the refusal comes
        before the queue sees the value."""
        ep = make(kind)
        ep.handle_request({"op": "tenant", "name": "hog", "weight": 2})
        ep.handle_request({"op": "submit", "jobs": [
            job(f"a{i}", tenant="a") for i in range(2)
        ] + [job(f"hog{i}", tenant="hog") for i in range(4)]})

        def status():
            def scrub(doc):  # wall-clock and memory readings move on their own
                if isinstance(doc, dict):
                    return {k: scrub(v) for k, v in doc.items()
                            if k not in ("uptime_seconds", "rss_bytes")}
                return doc

            return scrub(strict(ep.handle_request({"op": "status"})))

        before = status()
        for name in ("a", "hog", "newcomer"):
            resp = strict(ep.handle_request(
                json.loads('{"op":"tenant","name":"%s","weight":%s}' % (name, literal))
            ))
            assert not resp["ok"] and resp["error"] == "invalid_request"
        assert status() == before
        assert ep.handle_request({"op": "flush"})["admitted"] == [
            "a0", "hog0", "hog1", "a1", "hog2", "hog3",
        ]

    #: amounts the wire can carry that must be refused, never truncated
    #: (2.7 -> 2, "1" -> 1) or escape as OverflowError (1e400 is inf; a
    #: 400-digit integer does not fit a float)
    _BAD_AMOUNTS = (
        '{"op":"submit","jobs":[{"id":"b","demand":[1e400,1],"duration":1}]}',
        '{"op":"submit","jobs":[{"id":"b","demand":[Infinity,1],"duration":1}]}',
        '{"op":"submit","jobs":[{"id":"b","demand":[NaN,1],"duration":1}]}',
        '{"op":"submit","jobs":[{"id":"a","demand":[2.7,"1"],"duration":1.5}]}',
        '{"op":"submit","jobs":[{"id":"b","demand":["1",1],"duration":1}]}',
        '{"op":"submit","jobs":[{"id":"ok","demand":[1,1],"duration":1},'
        '{"id":"a","demand":[1,1.5],"duration":1}]}',
        '{"op":"submit","jobs":[{"id":"b","demand":[1,1],"duration":1,"release":1%s}]}'
        % ("0" * 400),
    )

    @pytest.mark.parametrize(
        "line", _BAD_AMOUNTS,
        ids=("1e400", "Infinity", "NaN", "fraction", "string", "last-row", "release"),
    )
    def test_unrepresentable_amounts_are_refused(self, kind, line):
        ep = make(kind, caps=(4, 4))
        # handle_request used to *raise* OverflowError on 1e400
        resp = ep.handle_request(json.loads(line))
        assert resp["ok"] is False and resp["error"] == "invalid_request"
        assert resp["detail"].startswith(
            ("job 'a': malformed record", "job 'b': malformed record")
        )
        # all-or-nothing: the good first row of "last-row" was not buffered
        assert ep.handle_request({"op": "status"})["buffered"] == 0
        assert ep.handle_request({"op": "flush"})["admitted"] == []
        # ... and the transport answers the same, not `internal` from its backstop
        out = io.StringIO()
        serve_stdio(make(kind, caps=(4, 4)), io.StringIO(line + "\n"), out)
        assert json.loads(out.getvalue())["error"] == "invalid_request"

    # -- an implicit flush never goes unreported -----------------------
    @pytest.mark.parametrize(
        "refused",
        ({"op": "cancel", "id": "nope"}, {"op": "advance", "until": "soon"}),
        ids=("due-batch", "own-flush"),
    )
    def test_a_refusal_still_reports_its_implicit_flush(self, kind, refused):
        """``a`` fits, ``b`` never can.  The flush happens — through the
        due-batch check before ``cancel``, through ``advance``'s own flush
        — and then the op is refused: the reply used to carry neither what
        was admitted nor what was rejected, with ``b`` simply gone."""
        clock = [0.0]
        ep = make(kind, batch_interval=1.0, clock=lambda: clock[0])
        ep.handle_request({"op": "submit", "jobs": [job("a"), job("b", demand=(9,))]})
        if refused["op"] == "cancel":
            clock[0] = 5.0  # the buffer is due: any op but submit/flush admits it
        resp = ep.handle_request(refused)
        assert resp["ok"] is False and resp["error"] == "invalid_request"
        assert resp["admitted_by_batch"] == ["a"]
        assert [(e["id"], e["error"]) for e in resp["admission_errors"]] == [
            ("b", "admission_failed")
        ]
        status = ep.handle_request({"op": "status"})
        assert status["jobs"] == 1 and status["buffered"] == 0
