#!/usr/bin/env python3
"""The ``stack`` benchmark: five workloads, one command.

    python3 benchmarks/stack/run.py                      # all five, untraced
    python3 benchmarks/stack/run.py --traced             # per-layer numbers
    python3 benchmarks/stack/run.py --seed 7             # other inputs
    python3 benchmarks/stack/run.py --repeat-check       # two sets, PASS/FAIL
    python3 benchmarks/stack/run.py --workload stream-bulk --seed 3 \\
            --seconds 10 --trace 0                       # one run (the driver's form)

Every metric is printed by name with its unit, every output is checked,
and the last line of a single-workload run is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import harness  # noqa: E402  (stdlib only; the system is imported in main)

SETUPS = 3  # set-ups per run; ``setup_s`` is their median
PINS = os.path.join(HERE, "pins.json")


def _contract() -> dict:
    with open(os.path.join(harness.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


# ----------------------------------------------------------------------
# one workload, one run
# ----------------------------------------------------------------------
def run_workload(name: str, seed: int, seconds: float, trace: bool, pin: bool):
    """Returns ``(result line, details)``."""
    from repro.service.client import ServiceError

    from batch import BatchWorkload
    from stream import StreamWorkload
    from workloads import SPECS

    contract = _contract()
    spec = SPECS[name]
    tally = harness.Tally()
    host = harness.HostSpeed()
    servers = harness.Servers()
    if spec.kind == "stream":
        workload = StreamWorkload(spec, seed, tally, host, servers)
    else:
        workload = BatchWorkload(spec, seed, tally, host)
    details: dict = {
        "workload": name, "seed": seed, "jobs": spec.n, "trace": int(trace),
        "shape": f"{spec.instances}x{spec.layers}x{spec.width}, d={spec.d}, "
                 f"capacity={spec.capacity}, chunk={spec.chunk}",
        "env": harness.environment(),
    }
    metrics: dict[str, dict] = {}
    try:
        setups = []
        for _ in range(SETUPS):
            before = host.sample()
            t0 = time.perf_counter()
            workload.setup()
            seconds_taken = time.perf_counter() - t0
            setups.append((seconds_taken, host.slowdown(before, host.sample())))
        details["input_sha"] = workload.input_sha
        if trace:
            tracer = harness.Tracer(name)
            layers = workload.traced(tracer)
            checked = workload.check()
            tracer.dump(os.path.join(harness.OUT_DIR, f"trace-{name}.json"))
            layers["conformance.validate_s"] = checked["validate_s"]
            if "recover_s" in checked:
                layers["service.journal.recover_s"] = checked["recover_s"]
                layers["service.journal.bytes_per_job"] = checked["journal_bytes_per_job"]
            for m in contract["per_layer"]:
                # a layer this workload never enters did no work
                metrics[m["name"]] = {"value": layers.pop(m["name"], 0), "unit": m["unit"]}
            if layers:
                raise RuntimeError(f"per-layer metrics not in BENCHMARK.json: {sorted(layers)}")
        else:
            samples = []
            began = time.perf_counter()
            while not samples or time.perf_counter() - began < seconds:
                samples.append(workload.repeat())
            checked = workload.check()
            details["summary"] = summary = _summarize(spec.n, samples, setups, scaled=True)
            details["raw"] = _summarize(spec.n, samples, setups, scaled=False)
            for table in (summary, details["raw"]):
                table["makespan_ratio"] = harness.summarize([checked["makespan_ratio"]])
            details["samples"] = [
                {k: v for k, v in s.items() if not isinstance(v, list)} for s in samples
            ]
            for m in contract["end_to_end"]:
                metrics[m["name"]] = {"value": summary[m["name"]]["median"], "unit": m["unit"]}
        details["schedule_sha"] = checked["schedule_sha"]
        _check_pins(details, tally, pin)
    except harness.Abort as exc:
        details["aborted"] = str(exc)
    except ServiceError as exc:  # outside the op stream: a server that never came up
        tally.fail(f"server unreachable: {exc.code}: {exc.detail}")
        details["aborted"] = str(exc)
    except Exception as exc:  # still end with a result line that says what broke
        traceback.print_exc()
        tally.fail(f"benchmark error: {exc!r}")
        details["aborted"] = repr(exc)
    finally:
        servers.close()
    details["notes"] = tally.notes
    line = {
        "correct": tally.failed == 0 and "aborted" not in details,
        "attempted": max(1, tally.attempted),
        "failed": tally.failed,
        "metrics": metrics,
    }
    details["result"] = line
    return line, details


def _summarize(n: int, samples, setups, scaled: bool) -> dict:
    """Per metric: median, quartiles and count over the timed repeats.
    ``scaled`` puts every time on the nominal-host scale (see
    ``harness.HostSpeed``); otherwise they are as the clock read them."""
    rate, cpu, submit = (
        ("rate_scaled", "cpu_scaled_s", "submit_scaled_s") if scaled
        else ("rate", "cpu_s", "submit_s")
    )
    return {
        "jobs_per_s": harness.summarize(x for s in samples for x in s[rate]),
        "cpu_ms_per_job": harness.summarize(1e3 * s[cpu] / n for s in samples),
        "submit_p50_ms": harness.summarize(1e3 * x for s in samples for x in s[submit]),
        "peak_rss_mb": harness.summarize(s["rss_mb"] for s in samples),
        "setup_s": harness.summarize(t / (slow if scaled else 1.0) for t, slow in setups),
    }


def _check_pins(details: dict, tally, write: bool) -> None:
    """Input and schedule hashes of pinned (workload, seed) pairs must not
    drift; hashes recorded under other library versions are not compared."""
    env = {k: details["env"][k] for k in ("python", "numpy", "scipy")}
    try:
        with open(PINS, encoding="utf-8") as fh:
            pins = json.load(fh)
    except FileNotFoundError:
        pins = {"env": env, "pins": {}}
    key = f"{details['workload']}@{details['seed']}"
    mine = {"jobs": details["jobs"], "input_sha": details["input_sha"],
            "schedule_sha": details["schedule_sha"]}
    if write:
        if pins["env"] != env:
            pins = {"env": env, "pins": {}}
        pins["pins"][key] = mine
        with open(PINS, "w", encoding="utf-8") as fh:
            json.dump(pins, fh, indent=1, sort_keys=True)
            fh.write("\n")
        details["pin"] = "written"
    elif key not in pins["pins"]:
        details["pin"] = "none for this seed"
    elif pins["env"] != env:
        details["pin"] = f"skipped: pinned under {pins['env']}"
    else:
        for field in ("input_sha", "schedule_sha"):
            tally.check(
                pins["pins"][key][field] == mine[field],
                f"{field} drifted from pins.json: {mine[field]}",
            )
        details["pin"] = "checked"


def report(details: dict, line: dict) -> None:
    env = details["env"]
    print(f"== {details['workload']}  seed={details['seed']}  "
          f"jobs={details['jobs']}  ({details['shape']})")
    print("   " + "  ".join(f"{k}={v}" for k, v in env.items()))
    summary, raw = details.get("summary", {}), details.get("raw", {})
    for name, m in line["metrics"].items():
        extra = ""
        if name in summary:
            s = summary[name]
            extra = (f"   q1={s['q1']:.6g} q3={s['q3']:.6g} n={s['n']}"
                     f"   unscaled={raw[name]['median']:.6g}")
        print(f"   {name:<40s} {m['value']:>14.6g} {m['unit']:<8s}{extra}")
    for key in ("input_sha", "schedule_sha", "pin", "aborted"):
        if key in details:
            print(f"   {key}: {details[key]}")
    for note in details["notes"]:
        print(f"   FAILED: {note}")
    print(f"   attempted={line['attempted']} failed={line['failed']} "
          f"correct={line['correct']}")


def main_one(args) -> int:
    harness.sigterm_as_exit()
    line, details = run_workload(
        args.workload, args.seed, args.seconds, bool(args.trace), args.pin
    )
    os.makedirs(harness.OUT_DIR, exist_ok=True)
    path = os.path.join(harness.OUT_DIR, f"last-{args.workload}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(details, fh, indent=1)
    report(details, line)
    print(json.dumps(line), flush=True)
    return 0 if line["correct"] else 1


# ----------------------------------------------------------------------
# all five, and the repeat check
# ----------------------------------------------------------------------
def _child(workload: str, seed: int, seconds: float, trace: int, pin: bool, quiet: bool):
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    if pin:
        cmd.append("--pin")
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
    report, _, last = done.stdout.rstrip("\n").rpartition("\n")
    try:
        line = json.loads(last)
    except json.JSONDecodeError:  # the run died before its result line
        report, line = done.stdout, {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}
    if not quiet or not line["correct"]:
        print(report, flush=True)
        if done.stderr.strip():
            print(done.stderr, file=sys.stderr, flush=True)
    return line


def main_all(args) -> int:
    from workloads import SPECS

    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in SPECS:
        line = _child(name, args.seed, args.seconds, args.trace, args.pin, quiet=False)
        merged["correct"] &= line["correct"]
        merged["attempted"] += line["attempted"]
        merged["failed"] += line["failed"]
        for metric, m in line["metrics"].items():
            merged["metrics"][f"{name}/{metric}"] = m
    print(json.dumps(merged), flush=True)
    return 0 if merged["correct"] else 1


def _worse_by(metric: dict, first: float, second: float) -> float:
    """By what share of ``first`` the second median is worse."""
    delta = (second - first) / first
    return delta if metric["better"] == "lower" else -delta


def _spread(values) -> float:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2


def main_repeat_check(args) -> int:
    """Two back-to-back sets of ``--runs`` untraced runs per workload (seeds
    ``seed .. seed+runs-1``): per metric × workload both medians, by how
    much the second is worse, the spreads, and PASS/FAIL against the
    metric's bound."""
    from workloads import SPECS

    contract = _contract()
    runs = args.runs
    names = [args.workload] if args.workload else list(SPECS)
    sets: list[dict] = []
    ok = True
    for _ in range(2):
        values: dict = {}
        for name in names:
            for k in range(runs):
                line = _child(name, args.seed + k, args.seconds, 0, False, quiet=True)
                ok &= line["correct"]
                for m in contract["end_to_end"]:
                    got = line["metrics"].get(m["name"], {}).get("value", float("nan"))
                    values.setdefault((name, m["name"]), []).append(got)
        sets.append(values)
    print(f"repeat check: 2 sets x {runs} run(s) x {args.seconds:g} s, "
          f"seeds {args.seed}..{args.seed + runs - 1}, " +
          " ".join(f"{k}={v}" for k, v in harness.environment().items()))
    print(f"{'workload':<26s}{'metric':<16s}{'median 1':>12s}{'median 2':>12s}"
          f"{'worse by':>10s}{'spread 1':>10s}{'spread 2':>10s}{'bound':>7s}  verdict")
    for name in names:
        for m in contract["end_to_end"]:
            a, b = (s[(name, m["name"])] for s in sets)
            ma, mb = statistics.median(a), statistics.median(b)
            worse = _worse_by(m, ma, mb)
            passed = worse <= m["bound"]
            spreads = ""
            if runs >= 2:
                sa, sb = _spread(a), _spread(b)
                spreads = f"{sa:>10.2%}{sb:>10.2%}"
                if m["name"] != "setup_s":
                    passed &= max(sa, sb) <= m["bound"]
            ok &= passed
            print(f"{name:<26s}{m['name']:<16s}{ma:>12.5g}{mb:>12.5g}{worse:>+10.2%}"
                  f"{spreads:>20s}{m['bound']:>7.2f}  {'PASS' if passed else 'FAIL'}")
    print("all correct and within bounds" if ok else "FAILED")
    print("\nvalues per run (set 1 | set 2)")
    for (name, metric), a in sets[0].items():
        b = sets[1][(name, metric)]
        print(f"{name:<26s}{metric:<16s}" + " ".join(f"{x:.5g}" for x in a)
              + " | " + " ".join(f"{x:.5g}" for x in b))
    return 0 if ok else 1


def main(argv=None) -> int:
    from workloads import SPECS

    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=sorted(SPECS), default=None,
                   help="run one workload and end with the JSON result line "
                        "(default: all five, one after the other)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=_contract()["run_seconds"],
                   help="how long one run measures")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0,
                   help="1: the per-layer run (spans, counters) instead of "
                        "the end-to-end one")
    p.add_argument("--traced", dest="trace", action="store_const", const=1,
                   help="same as --trace 1")
    p.add_argument("--repeat-check", action="store_true",
                   help="two sets of runs, compared against the bounds")
    p.add_argument("--runs", type=int, default=1,
                   help="runs per workload and set for --repeat-check")
    p.add_argument("--pin", action="store_true",
                   help="record this run's input and schedule hashes in pins.json")
    args = p.parse_args(argv)
    if args.repeat_check:
        return main_repeat_check(args)
    if args.workload is None:
        return main_all(args)
    return main_one(args)


if __name__ == "__main__":
    try:
        import repro  # noqa: F401
    except ImportError:
        if not os.path.isdir(os.path.join(harness.SRC, "repro")):
            print("error: the system under test (src/repro) is not in this "
                  "checkout; run from the root of the repository",
                  file=sys.stderr)
            sys.exit(2)
        sys.path.insert(0, harness.SRC)
    sys.exit(main())
