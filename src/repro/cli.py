"""Command-line interface: reproduce the paper and schedule workloads.

Usage (after ``pip install -e .``)::

    python -m repro bench --compare BENCH_*.json
    python -m repro bench --only figure1 --tables out/
    python -m repro bench --emit-dir . --tables benchmarks/results
    python -m repro schedulers
    python -m repro fuzz --quick
    python -m repro schedule --family cholesky --n 40 --d 3 --gantt
    python -m repro schedule --family independent --scheduler sun_shelf
    python -m repro schedule --scheduler tetris --arrival-rate 2.0
    python -m repro schedule --n 2000 --follow      # stream events live
    python -m repro serve --capacities 16 16        # JSON-lines service
    python -m repro serve --tcp 7077 --batch-size 8

Every paper result (Table 1, Figures 1-2, the simulation ratios and the
ablations) has one producer, its registered ``repro bench`` spec; every
scheduler name comes from :mod:`repro.registry`.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from typing import Sequence

from repro.experiments.report import format_table
from repro.experiments.workloads import WORKLOAD_FAMILIES, random_instance
from repro.instance.instance import with_poisson_arrivals
from repro.registry import available_schedulers, get_scheduler, scheduler_specs
from repro.resources.pool import ResourcePool
from repro.sim.gantt import ascii_gantt
from repro.sim.schedule import Schedule
from repro.sim.trace import trace_to_json

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="repro", description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = p.add_subparsers(dest="command", required=True)

    sub.add_parser("schedulers", help="list the registered schedulers")

    be = sub.add_parser(
        "bench",
        help="regenerate the paper's tables, figures and ratio studies: "
             "recorded checks, versioned JSON emission, comparison against "
             "the committed slices",
    )
    be.add_argument("--only", nargs="+", default=None, metavar="NAME",
                    help="run only these registered benchmarks")
    be.add_argument("--json", metavar="FILE", dest="json_out",
                    help="write the full repro-bench/2 document here")
    be.add_argument("--emit-dir", metavar="DIR",
                    help="write per-benchmark BENCH_<name>.json slices here")
    be.add_argument("--tables", metavar="DIR",
                    help="render every benchmark's result table to DIR/<name>.txt")
    be.add_argument("--compare", nargs="+", metavar="BENCH.json",
                    help="diff against these documents (e.g. the committed "
                         "BENCH_*.json), merged into one baseline that must "
                         "carry one git_sha; gated regressions fail the run")
    be.add_argument("--list", action="store_true", dest="list_only",
                    help="list registered benchmarks and exit")

    fz = sub.add_parser(
        "fuzz",
        help="conformance sweep over every registered scheduler: strict "
             "validation, round trips, and the batch loop raced against "
             "the session loop",
    )
    fz.add_argument("--quick", action="store_true",
                    help="reduced matrix (~500 cases; also via REPRO_FUZZ_QUICK=1)")
    fz.add_argument("--n", type=int, default=10, help="jobs per instance")
    fz.add_argument("--seed", type=int, default=0, help="base seed")
    fz.add_argument("--schedulers", nargs="+", default=None, metavar="NAME",
                    help="restrict to these registered schedulers")
    fz.add_argument("--families", nargs="+", default=None,
                    choices=list(WORKLOAD_FAMILIES),
                    help="restrict to these workload families")
    fz.add_argument("--max-cases", type=int, default=None, metavar="K",
                    help="truncate the matrix to its first K cases")
    fz.add_argument("--failures", metavar="FILE",
                    help="write failing cases (seeded reproducers) as JSON")

    sc = sub.add_parser("schedule", help="schedule one workload and report")
    sc.add_argument("--family", default="layered", choices=list(WORKLOAD_FAMILIES))
    sc.add_argument("--n", type=int, default=24)
    sc.add_argument("--d", type=int, default=2)
    sc.add_argument("--capacity", type=int, default=16)
    sc.add_argument("--seed", type=int, default=0)
    sc.add_argument("--scheduler", "--algorithm", dest="scheduler", default="ours",
                    metavar="NAME",
                    help="a registered scheduler name (see `repro schedulers`)")
    sc.add_argument("--arrival-rate", type=float, default=None, metavar="RATE",
                    help="online scenario: jobs arrive as a Poisson process "
                         "with this rate (event-driven schedulers only)")
    sc.add_argument("--gantt", action="store_true", help="print an ASCII Gantt chart")
    sc.add_argument("--trace", metavar="FILE", help="write a JSON trace")
    sc.add_argument("--follow", action="store_true",
                    help="stream per-event progress while dispatching: the "
                         "scheduler's allocation is replayed through the "
                         "re-entrant engine loop, printing each start/finish "
                         "as virtual time advances (fixed-allocation "
                         "schedulers only)")

    sv = sub.add_parser(
        "serve",
        help="online scheduling service: JSON-lines requests "
             "(submit/cancel/advance/drain/checkpoint/restore) over "
             "stdin/stdout or TCP",
    )
    sv.add_argument("--capacities", type=int, nargs="+", default=None, metavar="P",
                    help="per-type platform capacities (default: --d copies "
                         "of --capacity)")
    sv.add_argument("--d", type=int, default=2)
    sv.add_argument("--capacity", type=int, default=16)
    sv.add_argument("--tcp", type=int, default=None, metavar="PORT",
                    help="serve a TCP socket instead of stdin/stdout "
                         "(0 picks a free port)")
    sv.add_argument("--host", default="127.0.0.1")
    sv.add_argument("--restore", metavar="FILE", default=None,
                    help="resume from a repro-session/2 checkpoint; with "
                         "--journal, start a new durable lineage from it "
                         "(not with --supervise: seed the journal once, "
                         "then supervise with --journal alone)")
    sv.add_argument("--trace", metavar="FILE", default=None,
                    help="write the session trace (v3, cancellations "
                         "included) on shutdown")
    sv.add_argument("--seed", type=int, default=0,
                    help="session RNG seed")
    sv.add_argument("--compact-threshold", type=float, default=None,
                    metavar="FRACTION",
                    help="archive finished rows once this fraction of the "
                         "live table is dead (session default 0.5; 0 or "
                         "negative disables compaction; overrides a "
                         "restored checkpoint's setting when given)")
    sv.add_argument("--compact-min-rows", type=int, default=None,
                    metavar="N",
                    help="never compact below this many live rows "
                         "(session default 512; overrides a restored "
                         "checkpoint's setting when given)")

    lim = sv.add_argument_group(
        "admission & limits",
        "when jobs are admitted, in weighted-fair order across tenants, "
        "from the per-tenant buffers into the session, and how much a "
        "client may buffer or send",
    )
    lim.add_argument("--batch-size", type=int, default=32,
                     help="admit buffered submissions once this many are "
                          "waiting (default 32)")
    lim.add_argument("--batch-interval", type=float, default=0.05,
                     metavar="SECONDS",
                     help="...or once the oldest has waited this long "
                          "(default 0.05s); whichever comes first")
    lim.add_argument("--max-pending", type=int, default=None, metavar="N",
                     help="bound each tenant's submission buffer: jobs past "
                          "the bound are refused with an explicit "
                          "'backpressure' response field")
    lim.add_argument("--max-request-bytes", type=int, default=1 << 20,
                     metavar="N",
                     help="reject request lines longer than this with an "
                          "error response (default 1 MiB)")

    dur = sv.add_argument_group(
        "durability & supervision",
        "write-ahead journaling, crash recovery and the supervised "
        "restart loop",
    )
    dur.add_argument("--journal", metavar="FILE", default=None,
                     help="durable mode: write-ahead journal every mutating "
                          "op before acknowledging it; on start, recover "
                          "from the latest snapshot + journal suffix")
    dur.add_argument("--snapshot", metavar="FILE", default=None,
                     help="durable snapshot path (default: "
                          "<journal>.snapshot.json); requires --journal")
    dur.add_argument("--checkpoint-every", type=int, default=None, metavar="N",
                     help="auto-checkpoint (and rotate the journal) every N "
                          "journaled records; requires --journal")
    dur.add_argument("--chaos", metavar="SPEC", default=None,
                     help="deterministic fault injection: 'point:rate,...' "
                          "(e.g. 'op-applied:0.05,mid-drain:0.2'; also via "
                          "REPRO_CHAOS); an injected crash exits 137; "
                          "requires --journal")
    dur.add_argument("--chaos-seed", type=int, default=0,
                     help="seed of the chaos injector's RNG")
    dur.add_argument("--supervise", action="store_true",
                     help="run the worker as a child process and restart it "
                          "from snapshot+journal on abnormal exit, with "
                          "bounded exponential backoff; requires --journal")
    # None = "not given", so a supervisor flag without --supervise is
    # refused rather than ignored; BackoffPolicy holds the defaults
    dur.add_argument("--backoff-base", type=float, default=None,
                     metavar="SECONDS",
                     help="initial restart backoff (doubles per consecutive "
                          "failure; default 0.5s); requires --supervise")
    dur.add_argument("--backoff-cap", type=float, default=None,
                     metavar="SECONDS",
                     help="maximum restart backoff (default 10s); requires "
                          "--supervise")
    dur.add_argument("--max-restarts", type=int, default=None, metavar="N",
                     help="give up after this many consecutive abnormal "
                          "exits (a worker healthy for 30s resets the "
                          "budget; default 5); requires --supervise")

    obs = sv.add_argument_group(
        "observability",
        "the service always keeps metrics (Prometheus exposition) and "
        "request spans in-process, reachable via the 'metrics'/'spans' "
        "ops; --metrics-port additionally serves GET /metrics over HTTP",
    )
    obs.add_argument("--metrics-port", type=int, default=None, metavar="PORT",
                     help="serve the Prometheus text exposition on "
                          "http://<host>:PORT/metrics (0 picks a free "
                          "port)")

    return p


def _cmd_fuzz(args) -> int:
    import json

    from repro.conformance.fuzz import default_matrix, run_fuzz

    if args.max_cases is not None and args.max_cases < 1:
        # a negative slice bound would silently drop cases from the end,
        # and 0 would pass the gate having checked nothing
        print(f"error: --max-cases must be >= 1, got {args.max_cases}",
              file=sys.stderr)
        return 2
    failures_error = _output_path_error("--failures", args.failures)
    if failures_error:
        print(failures_error, file=sys.stderr)
        return 2
    if args.n < 1:
        print(f"error: --n must be >= 1, got {args.n}", file=sys.stderr)
        return 2
    if args.seed < 0:
        # every case would crash in the workload generator's RNG
        print(f"error: --seed must be >= 0, got {args.seed}", file=sys.stderr)
        return 2
    quick = args.quick or os.environ.get("REPRO_FUZZ_QUICK") == "1"
    try:
        cases = default_matrix(
            quick=quick, n=args.n, seed=args.seed,
            schedulers=args.schedulers, families=args.families,
        )
    except KeyError as exc:
        print(f"error: {exc.args[0]}", file=sys.stderr)
        return 2
    if not cases:
        # 0 cases and 0 failures would pass the gate having checked nothing
        print("error: the filters leave no fuzz case: --schedulers "
              f"{' '.join(args.schedulers or ['(all)'])} --families "
              f"{' '.join(args.families or ['(all)'])}", file=sys.stderr)
        return 2
    if args.max_cases is not None:
        cases = cases[: args.max_cases]
    label = "quick" if quick else "full"
    print(f"fuzz: sweeping {len(cases)} cases ({label} matrix)", flush=True)

    def progress(i, total, case):
        if i and i % 250 == 0:
            print(f"  ... {i}/{total}", flush=True)

    report = run_fuzz(cases, progress=progress)
    print(report.summary())
    if args.failures:
        with open(args.failures, "w") as fh:
            json.dump(report.to_json(), fh, indent=2)
        print(f"failure report written to {args.failures}")
    return 0 if report.ok else 1


def _cmd_bench(args) -> int:
    import json

    from repro.bench.compare import compare_documents, merge_baseline
    from repro.bench.registry import available_benchmarks, benchmark_specs
    from repro.bench.runner import failed_checks, run_benchmarks
    from repro.bench.schema import (
        benchmark_document,
        build_document,
        load_document,
        write_tables,
    )

    if args.list_only:
        rows = [(s.name, s.description) for s in benchmark_specs()]
        print(format_table(["name", "description"], rows,
                           title="Registered benchmarks"))
        return 0

    json_error = _output_path_error("--json", args.json_out)
    if json_error:
        print(json_error, file=sys.stderr)
        return 2

    names = available_benchmarks()
    if args.only is not None:
        unknown = set(args.only) - set(names)
        if unknown:
            print(f"error: unknown benchmark(s): {', '.join(sorted(unknown))}; "
                  f"registered: {', '.join(names)}", file=sys.stderr)
            return 2
        names = [n for n in names if n in set(args.only)]

    baseline = None
    if args.compare:
        docs = []
        for path in args.compare:
            try:
                docs.append(load_document(path))
            except (OSError, ValueError) as exc:  # unreadable, not JSON, or a SchemaError
                print(f"error: cannot load baseline {path}: {exc}", file=sys.stderr)
                return 2
        try:
            baseline = merge_baseline(docs)
        except ValueError as exc:  # two recordings, a null git_sha, or duplicates
            print(f"error: --compare: {exc}", file=sys.stderr)
            return 2
    print(f"bench: running {len(names)} benchmark(s)", flush=True)

    def progress(i, total, name):
        print(f"  [{i + 1}/{total}] {name}", flush=True)

    records = run_benchmarks(names, progress=progress)
    doc = build_document(records)

    failed = failed_checks(records)
    for record in records:
        metrics = ", ".join(
            f"{k}={v:.4g}" for k, v in sorted(record["derived"].items())
        )
        print(f"  {record['name']}: {record['seconds']:.2f}s"
              + (f", {metrics}" if metrics else ""))
    for name, check in failed:
        detail = f": {check['detail']}" if check["detail"] else ""
        print(f"  CHECK FAILED {name}:{check['name']}{detail}")

    if args.json_out:
        with open(args.json_out, "w") as fh:
            json.dump(doc, fh, indent=1, sort_keys=False)
            fh.write("\n")
        print(f"document written to {args.json_out}")
    if args.emit_dir:
        os.makedirs(args.emit_dir, exist_ok=True)
        for record in records:
            path = os.path.join(args.emit_dir, f"BENCH_{record['name']}.json")
            with open(path, "w") as fh:
                json.dump(benchmark_document(doc, record["name"]), fh, indent=1)
                fh.write("\n")
        print(f"{len(records)} BENCH_<name>.json slice(s) written to {args.emit_dir}")
    if args.tables:
        written = write_tables(doc, args.tables)
        print(f"{len(written)} table(s) rendered to {args.tables}")

    exit_code = 0
    if failed:
        print(f"bench: {len(failed)} check(s) FAILED")
        exit_code = 1
    if baseline is not None:
        report = compare_documents(doc, baseline)
        print(report.summary())
        if not report.ok:
            exit_code = 1
    if exit_code == 0:
        print("bench: OK")
    return exit_code


def _cmd_schedulers() -> int:
    rows = [
        (s.name, s.kind, s.graphs, s.description)
        for s in scheduler_specs()
    ]
    print(format_table(["name", "kind", "graphs", "description"], rows,
                       title="Registered schedulers"))
    return 0


def _follow_replay(inst, result) -> "Schedule | None":
    """Stream the result's fixed allocation through a
    :class:`~repro.service.session.SchedulingSession` — the re-entrant
    engine loop — printing each start/finish as virtual time advances.
    Returns the streamed schedule (same allocation, FIFO queue order — it
    carries the identical Phase-2 guarantee) or ``None`` when the scheduler
    keeps no allocation to replay."""
    from repro.conformance.fuzz import service_specs
    from repro.service import SchedulingSession
    from repro.sim.schedule import ScheduledJob

    allocation = getattr(result, "allocation", None)
    if allocation is None:
        return None
    session = SchedulingSession(inst.pool.capacities)
    session.submit(service_specs(inst, allocation))
    job_of = {repr(j): j for j in inst.jobs}
    placements = {}
    until = session.now
    while until is not None:
        for e in session.advance(until):
            t = e["time"]
            if e["event"] == "start":
                j = job_of[e["id"]]
                placements[j] = ScheduledJob(job_id=j, start=t, time=e["duration"],
                                             alloc=allocation[j])
                print(f"[{t:12.4f}] start  {e['id']} alloc={tuple(e['alloc'])} "
                      f"dur={e['duration']:.4f}", flush=True)
            elif e["event"] == "finish":
                print(f"[{t:12.4f}] finish {e['id']}", flush=True)
        until = session.loop.next_time
    return Schedule(instance=inst, placements=placements)


def _output_path_error(flag: str, path: "str | None") -> "str | None":
    """Why ``flag path`` could not be written, or ``None``: checked
    before any work, so a bad path does not cost the run its output."""
    if path is None:
        return None
    parent = os.path.dirname(os.path.abspath(path))
    if not os.path.isdir(parent):
        return f"error: {flag}: directory {parent} does not exist"
    if not os.access(parent, os.W_OK | os.X_OK):
        return f"error: {flag}: directory {parent} is not writable"
    return None


def _cmd_schedule(args) -> int:
    try:
        spec = get_scheduler(args.scheduler)
    except KeyError:
        print(f"unknown scheduler {args.scheduler!r}; "
              f"registered: {', '.join(available_schedulers())}", file=sys.stderr)
        return 2
    trace_error = _output_path_error("--trace", args.trace)
    if trace_error:
        print(trace_error, file=sys.stderr)
        return 2
    try:
        pool = ResourcePool.uniform(args.d, args.capacity)
        wl = random_instance(args.family, args.n, pool, seed=args.seed)
        inst = wl.instance
        opts = {"sp_tree": wl.sp_tree} if args.scheduler == "ours" else {}
        if args.arrival_rate is not None:
            inst = with_poisson_arrivals(inst, args.arrival_rate, seed=args.seed)
        result = spec.schedule(inst, **opts)
    except ValueError as exc:
        # an out-of-range --d/--capacity/--n/--seed, or an offline planner
        # given release times
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.follow:
        streamed = _follow_replay(inst, result)
        if streamed is None:
            print(f"error: --follow needs a fixed allocation to replay and "
                  f"{args.scheduler!r} keeps none", file=sys.stderr)
            return 2
        print(f"\nfamily={args.family} n={inst.n} d={inst.d} "
              f"scheduler={args.scheduler} (streamed replay)\n"
              f"makespan={streamed.makespan:.4f}", end="")
        own = result.schedule
        if not isinstance(own, Schedule) or any(
            own.placements[j].start != p.start for j, p in streamed.placements.items()
        ):
            # the replay uses the FIFO queue order; flag any job it starts
            # at another time than the scheduler's own schedule, not just
            # a different makespan
            print(f" (differs from the scheduler's own queue order, "
                  f"makespan {result.makespan:.4f})", end="")
        print()
        schedule = streamed
    elif hasattr(result, "lower_bound"):
        print(
            f"family={args.family} n={inst.n} d={inst.d} allocator={result.allocator}\n"
            f"makespan={result.makespan:.4f} lower_bound={result.lower_bound:.4f} "
            f"ratio={result.ratio():.4f} proven<={result.proven_ratio:.4f}"
        )
        schedule = result.schedule
    else:
        print(f"family={args.family} n={inst.n} d={inst.d} algorithm={result.name}\n"
              f"makespan={result.makespan:.4f}")
        schedule = result.schedule
    schedule.validate()
    if not isinstance(schedule, Schedule):
        if args.gantt or args.trace:
            print(f"({args.scheduler} produces no moldable timeline; "
                  "--gantt/--trace skipped)")
        return 0
    if args.gantt:
        print()
        print(ascii_gantt(schedule, width=78))
    if args.trace:
        with open(args.trace, "w") as fh:
            fh.write(trace_to_json(schedule))
        print(f"\ntrace written to {args.trace}")
    return 0


#: serve flags consumed by the supervisor itself and stripped from the
#: child command line (value = number of following value arguments).
_SUPERVISE_FLAGS = {
    "--supervise": 0,
    "--backoff-base": 1,
    "--backoff-cap": 1,
    "--max-restarts": 1,
}


def _strip_supervise_flags(argv: "list[str]") -> "list[str]":
    """The child worker's argv: the supervisor's own flags removed
    (both ``--flag value`` and ``--flag=value`` forms)."""
    out: list[str] = []
    i = 0
    while i < len(argv):
        arg = argv[i]
        name = arg.split("=", 1)[0]
        if name in _SUPERVISE_FLAGS:
            if "=" not in arg:
                i += _SUPERVISE_FLAGS[name]
            i += 1
            continue
        out.append(arg)
        i += 1
    return out


def _serve_frontend(frontend, args) -> int:
    """Serve the front-end on the transport the flags select — ``--tcp``
    or stdio — with the ``GET /metrics`` listener beside it under
    ``--metrics-port``.  One lock serializes scrapes against request
    handling."""
    import threading

    from repro.service import serve_stdio, serve_tcp

    lock = threading.Lock()
    metrics_server = None
    if args.metrics_port is not None:
        # on demand: a plain `repro serve` never pays for http.server (~2 MB)
        from repro.obs.httpd import start_metrics_server

        metrics_server = start_metrics_server(
            frontend.render_metrics, host=args.host, port=args.metrics_port,
            lock=lock,
        )
        print(f"serve: metrics on http://{metrics_server.host}:"
              f"{metrics_server.port}/metrics", file=sys.stderr, flush=True)
    try:
        if args.tcp is not None:
            def announce(port: int) -> None:
                print(f"serve: listening on {args.host}:{port} (batch "
                      f"{args.batch_size} jobs / {args.batch_interval}s)",
                      file=sys.stderr, flush=True)

            return serve_tcp(frontend, args.host, args.tcp, on_bound=announce,
                             max_request_bytes=args.max_request_bytes,
                             lock=lock)
        return serve_stdio(frontend, sys.stdin, sys.stdout,
                           max_request_bytes=args.max_request_bytes, lock=lock)
    finally:
        if metrics_server is not None:
            metrics_server.close()


def _cmd_supervise(args, argv: "Sequence[str] | None") -> int:
    from repro.service.supervisor import BackoffPolicy, supervise

    given = {"base": args.backoff_base, "cap": args.backoff_cap,
             "max_restarts": args.max_restarts}
    try:
        policy = BackoffPolicy(**{k: v for k, v in given.items() if v is not None})
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    child_argv = _strip_supervise_flags(
        list(argv) if argv is not None else sys.argv[1:]
    )
    cmd = [sys.executable, "-m", "repro", *child_argv]

    def note(restarts: int, code: int, delay: float) -> None:
        print(f"serve: worker exited with code {code}; "
              f"restart #{restarts} in {delay:.2f}s", file=sys.stderr, flush=True)

    code = supervise(cmd, policy=policy, on_restart=note)
    if code != 0:
        print(f"serve: giving up after {policy.max_restarts} consecutive "
              f"failures (last exit code {code})", file=sys.stderr)
    return code


def _cmd_serve(args, argv: "Sequence[str] | None" = None) -> int:
    import json

    from repro.service import (
        ChaosInjector,
        JournaledSession,
        ServiceFrontend,
        SchedulingSession,
        load_session,
        write_trace,
    )

    # flags that only act beside another one are refused alone, never
    # ignored: each would promise what the run does not do
    chaos_spec = args.chaos or os.environ.get("REPRO_CHAOS")
    if not args.journal:
        if args.supervise:
            print("error: --supervise requires --journal (a restarted worker "
                  "recovers from snapshot + journal; without one it would "
                  "restart empty and lose every acknowledged job); run "
                  "'repro serve --supervise --journal FILE'", file=sys.stderr)
            return 2
        alone = [("--snapshot", args.snapshot is not None),
                 ("--checkpoint-every", args.checkpoint_every is not None),
                 ("--chaos" if args.chaos else "REPRO_CHAOS", bool(chaos_spec))]
        for flag, given in alone:
            if given:
                print(f"error: {flag} requires --journal", file=sys.stderr)
                return 2
    if not args.supervise:
        for flag, value in (("--backoff-base", args.backoff_base),
                            ("--backoff-cap", args.backoff_cap),
                            ("--max-restarts", args.max_restarts)):
            if value is not None:
                print(f"error: {flag} requires --supervise", file=sys.stderr)
                return 2

    trace_error = _output_path_error("--trace", args.trace)
    if trace_error:
        print(trace_error, file=sys.stderr)
        return 2

    if args.supervise:
        if args.restore:
            # the child argv keeps --restore, so every restart would reload
            # the checkpoint over the journal's acknowledged ops
            print(f"error: --restore cannot be combined with --supervise "
                  f"--journal (every restart would reload {args.restore} and "
                  f"drop what the journal acknowledged); seed the journal "
                  f"once with 'repro serve --journal {args.journal} --restore "
                  f"{args.restore}', then supervise with '--journal "
                  f"{args.journal}' alone", file=sys.stderr)
            return 2
        return _cmd_supervise(args, argv)

    # None = "not given": fresh sessions use the SchedulingSession
    # defaults, restored sessions keep their checkpoint's settings
    compact_kw = {}
    if args.compact_threshold is not None:
        # 0 or a negative fraction disables compaction
        ct = args.compact_threshold
        if -math.inf < ct <= 0:
            ct = None
        if not SchedulingSession.valid_compact_threshold(ct):
            print(f"error: --compact-threshold must be in (0, 1], or <= 0 to "
                  f"disable compaction, got {args.compact_threshold}",
                  file=sys.stderr)
            return 2
        compact_kw["compact_threshold"] = ct
    if args.compact_min_rows is not None:
        if args.compact_min_rows < 1:
            print("error: --compact-min-rows must be >= 1, got "
                  f"{args.compact_min_rows}", file=sys.stderr)
            return 2
        compact_kw["compact_min_rows"] = args.compact_min_rows
    if args.max_request_bytes < 1:
        print(f"error: --max-request-bytes must be >= 1, got "
              f"{args.max_request_bytes}", file=sys.stderr)
        return 2

    chaos = None
    if chaos_spec:
        def _chaos_exit(point: str) -> None:
            # die the way SIGKILL would: no cleanup, no atexit, exit 137
            print(f"serve: chaos crash at {point}", file=sys.stderr, flush=True)
            os._exit(137)

        try:
            chaos = ChaosInjector.from_spec(
                chaos_spec, seed=args.chaos_seed, on_crash=_chaos_exit
            )
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2

    caps = args.capacities if args.capacities else [args.capacity] * args.d
    session = None
    durable = None
    if args.restore:
        try:
            session = load_session(args.restore)
        except (OSError, json.JSONDecodeError, ValueError) as exc:
            print(f"error: cannot restore {args.restore}: {exc}", file=sys.stderr)
            return 2
        print(f"serve: resumed {len(session.gi.order)} job(s) at clock "
              f"{session.now:g} from {args.restore}", file=sys.stderr)
    if args.journal:
        snapshot = args.snapshot or args.journal + ".snapshot.json"
        try:
            if session is not None:
                durable = JournaledSession(
                    session, args.journal, snapshot,
                    checkpoint_every=args.checkpoint_every, chaos=chaos,
                )
            else:
                durable = JournaledSession.recover(
                    args.journal, snapshot, capacities=caps,
                    checkpoint_every=args.checkpoint_every, chaos=chaos,
                    session_kwargs={"seed": args.seed, **compact_kw},
                )
                session = durable.session
                if durable.recovered:
                    print(f"serve: recovered {len(session.gi.order)} job(s) at "
                          f"clock {session.now:g} from {snapshot} "
                          f"(+{durable.replayed} journal record(s) replayed, "
                          f"{durable.deduped} deduplicated)", file=sys.stderr)
        except (OSError, json.JSONDecodeError, ValueError) as exc:
            print(f"error: cannot recover from {args.journal}: {exc}",
                  file=sys.stderr)
            return 2
    if session is None:
        try:
            session = SchedulingSession(caps, seed=args.seed, **compact_kw)
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    # the overrides, over a restored or recovered session's own settings
    # (a session built here already has them)
    for name, value in compact_kw.items():
        setattr(session, name, value)
    if args.restore and durable is not None:
        # an explicit --restore starts a new durable lineage: snapshot it
        # and rotate whatever journal was there
        try:
            durable.checkpoint()
        except (OSError, ValueError) as exc:
            print(f"error: cannot recover from {args.journal}: {exc}",
                  file=sys.stderr)
            return 2
    try:
        frontend = ServiceFrontend(
            session, batch_size=args.batch_size,
            batch_interval=args.batch_interval,
            max_pending=args.max_pending, durable=durable,
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    code = _serve_frontend(frontend, args)
    if args.trace:
        write_trace(frontend.session, args.trace)
        print(f"serve: session trace written to {args.trace}", file=sys.stderr)
    return code


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    if args.command == "schedulers":
        return _cmd_schedulers()
    if args.command == "bench":
        return _cmd_bench(args)
    if args.command == "fuzz":
        return _cmd_fuzz(args)
    if args.command == "schedule":
        return _cmd_schedule(args)
    if args.command == "serve":
        return _cmd_serve(args, argv)
    raise AssertionError(f"unhandled command {args.command!r}")  # pragma: no cover


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
