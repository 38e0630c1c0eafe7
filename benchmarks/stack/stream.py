"""The two stream workloads: one closed-loop client, one connection.

A timed repeat launches a fresh ``repro serve`` (outside the timed region),
sends the whole pre-built op stream through the typed TCP client — each op
only after the previous one's reply — and ends with ``drain``.  The server
of the last repeat is kept until the checks have read its schedule.

Traced, the same stream is replayed against the layers one level at a
time: in process through ``ServiceFrontend.handle_request`` with timing
proxies on the session (and journal), and as bare JSON encode/decode.
"""

from __future__ import annotations

import gc
import json
import os
import signal
import time

from repro.conformance.invariants import validate_schedule
from repro.core.list_scheduler import fifo_priority, list_schedule
from repro.service.client import ServiceError
from repro.service.frontend import ServiceFrontend
from repro.service.journal import JournaledSession
from repro.service.session import SchedulingSession
from repro.service.wire import WIRE_VERSION

import harness
from harness import Abort
from workloads import make_inputs

_SESSION_VERBS = ("submit", "advance", "drain")
#: The client stops for a host-speed sample whenever this much of the
#: stream has gone by since the last one (the server idles meanwhile).
SEGMENT_S = 0.15


class StreamWorkload:
    def __init__(self, spec, seed: int, tally, host, servers) -> None:
        self.spec = spec
        self.seed = seed
        self.tally = tally
        self.host = host
        self.servers = servers
        self.inputs = None
        self.live = None  # (proc, client) of the last repeat, for the checks
        self.fingerprints: set[tuple] = set()
        self._journals = 0

    # -- servers ------------------------------------------------------------
    def _capacities(self) -> list[str]:
        return ["--capacities", *[str(self.spec.capacity)] * self.spec.d]

    def _serve_args(self, journal: "str | None" = None) -> list[str]:
        args = [*self._capacities(), *self.spec.serve_args]
        if journal is not None:
            args += ["--journal", journal]  # fsync on: the product default
        return args

    def _new_journal(self) -> "str | None":
        if not self.spec.durable:
            return None
        self._journals += 1
        return self.servers.path(f"journal-{self._journals}.log")

    def _retire(self) -> None:
        """Stop the previous repeat's server; a dirty exit is a failure."""
        if self.live is not None:
            proc, client = self.live
            self.live = None
            code = self.servers.stop(proc, client)
            self.tally.check(code == 0, f"server exited with code {code}")

    # -- the client loop ----------------------------------------------------
    def _drive(self, client, ops, paired: bool = False) -> dict:
        """Send ``ops`` in order, closed loop.  Returns the latencies per op
        kind, the ``drain`` reply and — ``paired`` — the stream cut into
        ``(seconds, slowdown, jobs handed over)`` segments between
        host-speed samples, with the submit latencies also on the
        nominal-host scale."""
        lat: dict[str, list[float]] = {"submit": [], "advance": [], "status": [], "drain": []}
        out = {"lat": lat, "drained": None, "segments": [], "submit_scaled_s": []}
        before = self.host.sample() if paired else None
        seg_start, seg_submits, seg_jobs = time.perf_counter(), 0, 0
        for i, (op, fields) in enumerate(ops):
            self.tally.attempted += 1
            try:
                t0 = time.perf_counter()
                resp = client.request(op, **fields)
                t1 = time.perf_counter()
                if "errors" in resp or "admission_errors" in resp or resp.get("backpressure"):
                    raise ServiceError(resp, f"{op} refused work: {resp}")
            except ServiceError as exc:  # refusal, error code, timeout, disconnect
                self.tally.fail(f"{op} failed: {exc.code}: {exc.detail}")
                raise Abort(str(exc)) from None
            lat[op].append(t1 - t0)
            if op == "submit":
                seg_jobs += len(fields["jobs"])
            elif op == "drain":
                out["drained"] = resp
            if paired and (t1 - seg_start >= SEGMENT_S or i == len(ops) - 1):
                after = self.host.sample()
                k = self.host.slowdown(before, after)
                out["segments"].append((t1 - seg_start, k, seg_jobs))
                out["submit_scaled_s"].extend(x / k for x in lat["submit"][seg_submits:])
                before, seg_submits, seg_jobs = after, len(lat["submit"]), 0
                seg_start = time.perf_counter()
        return out

    def setup(self) -> None:
        (self.inputs,) = make_inputs(self.spec.name, self.seed)
        self.repeat()

    @property
    def input_sha(self) -> str:
        return self.inputs.input_sha

    def repeat(self) -> dict:
        self._retire()
        journal = self._new_journal()
        proc, client = self.servers.launch(self._serve_args(journal))
        self.live = (proc, client)
        pids = [proc.pid]  # a plain ``repro serve`` is one process
        with harness.quiet_collector():
            c0 = harness.cpu_seconds(pids)
            run = self._drive(client, self.inputs.ops, paired=True)
            cpu = harness.cpu_seconds(pids) - c0
        drained, lat = run["drained"], run["lat"]
        self.fingerprints.add((drained["completed"], drained["makespan"]))
        segments = run["segments"]
        sample = harness.timed_sample(
            [(s, k) for s, k, _ in segments], cpu, harness.peak_rss_mb(pids)
        )
        # The rate of each stretch of the stream, not jobs over the whole
        # repeat: the disk here stalls single fsyncs for 100–250 ms, and
        # for minutes at a time often enough to take a third off a sum
        # while the median op does not move.
        sample.update(
            rate=[j / s for s, _, j in segments if j],
            rate_scaled=[j * k / s for s, k, j in segments if j],
            submit_s=lat["submit"], submit_scaled_s=run["submit_scaled_s"],
            advance_s=lat["advance"], ops_s=sum(sum(v) for v in lat.values()),
        )
        return sample

    # -- correctness --------------------------------------------------------
    def _read(self, call):
        """An untimed read after the stream; a server that cannot answer
        it has failed."""
        self.tally.attempted += 1
        try:
            return call()
        except ServiceError as exc:
            self.tally.fail(f"post-run read failed: {exc.code}: {exc.detail}")
            raise Abort(str(exc)) from None

    def _served_events(self, client) -> list[tuple]:
        return harness.events_of_trace(self._read(client.trace)["trace"])

    def check(self) -> dict:
        spec, tally, inputs = self.spec, self.tally, self.inputs
        _, client = self.live
        n = spec.n
        tally.check(
            len(self.fingerprints) == 1 and next(iter(self.fingerprints))[0] == n,
            f"repeats disagree or lost jobs: {sorted(self.fingerprints)} of {n}",
        )
        makespan = next(iter(self.fingerprints))[1]
        verdict = self._read(client.validate)  # strict
        tally.check(verdict["valid"], f"server validate: {verdict['violations'][:3]}")
        events = self._served_events(client)
        self._retire()  # also asserts the clean exit
        tally.check(len(events) == n, f"trace holds {len(events)} of {n} jobs")
        # the served schedule must be the batch one, event for event
        reference = list_schedule(
            inputs.fresh_instance(), inputs.allocation, fifo_priority
        )
        t0 = time.perf_counter()
        report = validate_schedule(reference, strict=True)
        validate_s = time.perf_counter() - t0
        tally.check(report.ok, f"strict validation: {report.violations[:3]}")
        ref_events = harness.events_of_schedule(reference)
        tally.check(events == ref_events, _first_difference(events, ref_events))
        out = {
            "makespan_ratio": makespan / inputs.lower_bound,
            "schedule_sha": harness.schedule_sha(events),
            "validate_s": validate_s,
        }
        if spec.durable:
            out.update(self._crash_recover(ref_events))
        return out

    def _crash_recover(self, ref_events) -> dict:
        """SIGKILL after the last acknowledged op, restart on the same
        journal, drain: the schedule must not change."""
        journal = self._new_journal()
        proc, client = self.servers.launch(self._serve_args(journal))
        self._drive(client, self.inputs.ops[:-1])  # everything but the drain
        journal_bytes = os.path.getsize(journal)
        os.kill(proc.pid, signal.SIGKILL)
        self.servers.stop(proc, client)
        t0 = time.perf_counter()
        proc, client = self.servers.launch(self._serve_args(journal))
        recover_s = time.perf_counter() - t0  # exec → first ``status`` reply
        self.live = (proc, client)
        self._drive(client, self.inputs.ops[-1:])
        events = self._served_events(client)
        self._retire()
        self.tally.check(
            events == ref_events,
            "after SIGKILL+recover: " + _first_difference(events, ref_events),
        )
        return {"recover_s": recover_s,
                "journal_bytes_per_job": journal_bytes / self.spec.n}

    # -- per-layer ----------------------------------------------------------
    def _frontend(self, tr=None):
        """What ``repro serve`` builds for this workload, in process; with
        ``tr``, the session's verbs and the journal's append are timed."""
        spec = self.spec
        caps = [spec.capacity] * spec.d
        batch = int(spec.serve_args[spec.serve_args.index("--batch-size") + 1])
        durable = None
        if spec.durable:
            journal = self._new_journal()
            durable = JournaledSession.recover(
                journal, journal + ".snapshot.json", capacities=caps,
                session_kwargs={"seed": 0},
            )
            session = durable.session
        else:
            session = SchedulingSession(caps, seed=0)
        if tr is not None:
            for verb in _SESSION_VERBS:
                tr.wrap(session, verb, f"service.session.{verb}")
            if durable is not None:
                tr.wrap(durable.journal, "append", "service.journal.append")
        return ServiceFrontend(session, batch_size=batch, durable=durable)

    def _in_process(self, requests, tr=None):
        """The stream through ``handle_request``; returns ``(frontend,
        responses, seconds)``."""
        frontend = self._frontend(tr)
        responses = []
        gc.collect()
        t0 = time.perf_counter()
        if tr is None:  # its own loop: the baseline pays for no span machinery
            for req in requests:
                responses.append(frontend.handle_request(req))
        else:
            for req in requests:
                with tr.span("service.frontend.handle"):
                    responses.append(frontend.handle_request(req))
        seconds = time.perf_counter() - t0
        self.tally.attempted += len(requests)
        bad = [r for r in responses if not r.get("ok")]
        if bad:
            self.tally.fail(f"in-process op failed: {bad[0]}")
            raise Abort(str(bad[0]))
        if frontend.durable is not None:
            frontend.durable.close()
        return frontend, responses, seconds

    def traced(self, tr) -> dict:
        spec, inputs = self.spec, self.inputs
        sample = self.repeat()  # the real thing over TCP, as timed
        _, client = self.live
        layers = {
            "service.client.submit_p50_ms": 1e3 * harness.percentile(sample["submit_s"], 0.50),
            "service.client.submit_p99_ms": 1e3 * harness.percentile(sample["submit_s"], 0.99),
            "service.client.advance_p50_ms": 1e3 * harness.percentile(sample["advance_s"], 0.50),
            "service.client.advance_p99_ms": 1e3 * harness.percentile(sample["advance_s"], 0.99),
            "trace.wall_s": sample["wall_s"],
        }
        served = harness.schedule_sha(self._served_events(client))
        requests = [
            {"v": WIRE_VERSION, "rid": i + 1, "op": op, **fields}
            for i, (op, fields) in enumerate(inputs.ops)
        ]
        _, _, plain_s = self._in_process(requests)
        frontend, responses, traced_s = self._in_process(requests, tr)
        events = harness.events_of_schedule(frontend.session.to_schedule())
        self.tally.check(
            harness.schedule_sha(events) == served,
            "in-process traced replay produced a different schedule",
        )
        t0 = time.perf_counter()
        for doc in requests:
            json.loads(json.dumps(doc))  # client encodes, server decodes
        for doc in responses:
            json.loads(json.dumps(doc))  # and back
        codec_s = time.perf_counter() - t0

        # the layers the TCP pass's wall time is made of
        parts = {name + "_s": seconds for name, seconds in tr.self_times().items()}
        parts["service.wire.codec_s"] = codec_s
        # what a TCP op costs beyond handling it (as just timed, spans and
        # all, so that the parts add up) and coding its two lines
        parts["service.client.transport_s"] = sample["ops_s"] - traced_s - codec_s
        layers.update(parts)
        layers["service.session.ops"] = sum(
            tr.count(f"service.session.{v}") for v in _SESSION_VERBS
        )
        layers["service.session.compactions"] = frontend.session.compactions
        if spec.durable:
            layers["service.journal.appends"] = tr.count("service.journal.append")
        layers["trace.coverage_pct"] = 100.0 * sum(parts.values()) / sample["wall_s"]
        layers["trace.overhead_pct"] = 100.0 * (traced_s / plain_s - 1.0)
        return layers


def _first_difference(got, want) -> str:
    for a, b in zip(got, want):
        if a != b:
            return f"first differing event: served {a} vs batch {b}"
    return f"served {len(got)} events vs batch {len(want)}"
