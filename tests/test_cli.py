"""Tests for the command-line interface."""

import json
import os
import pathlib
import subprocess
import sys

import pytest

from repro.cli import build_parser, main

RESULTS = pathlib.Path(__file__).resolve().parents[1] / "benchmarks" / "results"


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_known_commands(self):
        p = build_parser()
        for argv in (
            ["schedulers"],
            ["bench", "--only", "figure1"],
            ["fuzz", "--quick"],
            ["schedule", "--family", "chain"],
            ["serve"],
        ):
            args = p.parse_args(argv)
            assert args.command == argv[0]

    @pytest.mark.parametrize("command", ("schedule", "bench", "fuzz", "serve"))
    def test_no_subcommand_takes_a_backend_flag(self, command, capsys):
        """The batch loop has one executor: nothing is left to select."""
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args([command, "--backend", "x"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --backend" in capsys.readouterr().err

    @pytest.mark.parametrize("flags", (
        ["--workers", "2"], ["--shard-policy", "hash"], ["--admission", "fifo"],
    ))
    def test_serve_is_one_process_with_fair_admission(self, flags, capsys):
        """No sharded router and no second admission order to select."""
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(["serve", *flags])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flags[0]}" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", (
        ["figure1"], ["figure2"], ["table1"], ["sim-a"], ["sim-b"],
        ["ablation", "mu-rho"],
        ["bench", "--workers", "2"], ["bench", "--profile", "figure1"],
    ))
    def test_paper_results_have_one_front_door(self, argv, capsys):
        """``repro bench`` is the only producer of the paper's results: the
        per-figure subcommands, the process pool and the profiler are
        gone, so argparse refuses them before anything runs."""
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert "usage:" in captured.err and captured.out == ""


def test_serve_path_imports_no_scipy():
    """``repro serve`` — and every supervisor and supervised worker
    process — never solves an LP, so booting one must not pay for scipy
    (0.5 s and ~50 MB of RSS per process) — nor, without
    ``--metrics-port``, for ``http.server`` (~2 MB).  In a subprocess:
    this one has both loaded.  It boots a real serve loop, on an empty
    stdin, so imports made on the way in count too."""
    code = (
        "import io, sys, repro.cli, repro.service.supervisor; "
        "sys.stdin = io.StringIO(''); "
        "rc = repro.cli.main(['serve']); "
        "sys.exit(rc or any(m == 'http.server' or m.split('.')[0] == 'scipy' "
        "for m in sys.modules))"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0


def _bench_tables(tmp_path, *names):
    """Run the registered benchmarks through ``repro bench --tables`` and
    return ``{table name: rendered text}``."""
    tables = tmp_path / "tables"
    assert main(["bench", "--only", *names, "--tables", str(tables)]) == 0
    return {p.stem: p.read_text() for p in sorted(tables.glob("*.txt"))}


def _committed(name):
    return (RESULTS / f"{name}.txt").read_text()


class TestCommands:
    """Each paper result comes from its registered benchmark, and the
    table ``repro bench --tables`` renders is the committed one."""

    def test_figure1(self, tmp_path, capsys):
        out = _bench_tables(tmp_path, "figure1")
        assert out == {"figure1": _committed("figure1")}
        assert "Figure 1" in out["figure1"]

    def test_figure2(self, tmp_path, capsys):
        out = _bench_tables(tmp_path, "figure2_lower_bound")
        assert out == {"figure2_lower_bound": _committed("figure2_lower_bound")}
        assert "Theorem 6" in out["figure2_lower_bound"]

    def test_table1(self, tmp_path, capsys):
        out = _bench_tables(tmp_path, "table1")
        assert out == {"table1": _committed("table1")}
        assert "Table 1" in out["table1"] and "independent" in out["table1"]

    def test_sim_a_small(self, tmp_path, capsys):
        out = _bench_tables(tmp_path, "sim_ratio_vs_d")
        assert out == {"sim_ratio_vs_d": _committed("sim_ratio_vs_d")}
        assert "Sim-A" in out["sim_ratio_vs_d"]

    def test_sim_b_small(self, tmp_path, capsys):
        out = _bench_tables(tmp_path, "sim_independent")
        assert out == {"sim_independent": _committed("sim_independent")}
        assert "Sim-B" in out["sim_independent"]

    def test_ablation_commands(self, tmp_path, capsys):
        out = _bench_tables(tmp_path, "ablation_mu_rho", "ablation_priority")
        assert set(out) == {"ablation_mu_rho", "ablation_priority"}
        assert out == {name: _committed(name) for name in out}

    @pytest.mark.parametrize("name", (
        "ablation_rounding", "robustness", "capacity_sweep", "epsilon_sweep",
        "strategy_sweep", "malleable", "workflow_study", "true_ratio",
    ))
    def test_every_other_table_regenerates(self, name, tmp_path, capsys):
        """The remaining tables hold no wall-clock either: each regenerates
        byte for byte."""
        assert _bench_tables(tmp_path, name) == {name: _committed(name)}

    def test_schedule_ours(self, capsys):
        assert main(["schedule", "--family", "layered", "--n", "8",
                     "--d", "2", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert "makespan=" in out
        assert "proven<=" in out

    def test_schedule_baseline_with_gantt(self, capsys):
        assert main(["schedule", "--family", "independent", "--n", "6",
                     "--algorithm", "sun_shelf", "--gantt"]) == 0
        out = capsys.readouterr().out
        assert "sun2018_shelf" in out
        assert "makespan = " in out  # gantt header

    def test_schedule_trace_output(self, tmp_path, capsys):
        trace_file = tmp_path / "trace.json"
        assert main(["schedule", "--family", "chain", "--n", "5",
                     "--trace", str(trace_file)]) == 0
        data = json.loads(trace_file.read_text())
        assert data["version"] == 3
        assert len(data["jobs"]) == 5

    def test_schedule_refuses_a_trace_into_a_missing_directory(self, tmp_path, capsys):
        """Checked before the schedule is computed: the write at the end
        used to die with a traceback after all the work was done."""
        target = tmp_path / "missing" / "x.json"
        assert main(["schedule", "--n", "5", "--trace", str(target)]) == 2
        out, err = capsys.readouterr()
        assert err == f"error: --trace: directory {target.parent} does not exist\n"
        assert "makespan" not in out and not target.parent.exists()

    def test_bench_refuses_json_into_a_missing_directory(
        self, tmp_path, capsys, monkeypatch
    ):
        """Checked before any benchmark runs: the document write at the end
        used to die with a traceback after the whole run."""
        monkeypatch.setattr("repro.bench.runner.run_benchmarks",
                            lambda *a, **kw: pytest.fail("ran"))
        target = tmp_path / "missing" / "x.json"
        assert main(["bench", "--only", "figure1", "--json", str(target)]) == 2
        out, err = capsys.readouterr()
        assert err == f"error: --json: directory {target.parent} does not exist\n"
        assert "running" not in out and not target.parent.exists()

    def test_schedule_refuses_a_trace_under_a_regular_file(self, tmp_path, capsys):
        blocker = tmp_path / "file"
        blocker.write_text("")
        target = blocker / "x.json"
        assert main(["schedule", "--n", "5", "--trace", str(target)]) == 2
        out, err = capsys.readouterr()
        assert err == f"error: --trace: directory {blocker} does not exist\n"
        assert "makespan" not in out and blocker.read_text() == ""

    def test_schedule_refuses_a_trace_into_an_unwritable_directory(
        self, tmp_path, capsys, monkeypatch
    ):
        access = os.access
        monkeypatch.setattr(
            "repro.cli.os.access",
            lambda p, mode: False if p == str(tmp_path) else access(p, mode),
        )
        target = tmp_path / "x.json"
        assert main(["schedule", "--n", "5", "--trace", str(target)]) == 2
        out, err = capsys.readouterr()
        assert err == f"error: --trace: directory {tmp_path} is not writable\n"
        assert "makespan" not in out and not target.exists()

    def test_schedule_sp_family_uses_fptas(self, capsys):
        assert main(["schedule", "--family", "outtree", "--n", "8"]) == 0
        out = capsys.readouterr().out
        assert "allocator=sp" in out

    def test_schedule_new_baselines(self, capsys):
        for algo in ("backfill", "level_shelf"):
            assert main(["schedule", "--family", "layered", "--n", "8",
                         "--algorithm", algo]) == 0
            assert algo in capsys.readouterr().out

    def test_fuzz_parses(self):
        args = build_parser().parse_args(
            ["fuzz", "--quick", "--n", "8", "--max-cases", "10"]
        )
        assert args.command == "fuzz" and args.quick and args.max_cases == 10

    def test_fuzz_small_sweep(self, tmp_path, capsys):
        out_file = tmp_path / "failures.json"
        assert main(["fuzz", "--quick", "--n", "8", "--max-cases", "25",
                     "--failures", str(out_file)]) == 0
        out = capsys.readouterr().out
        assert "cases run" in out and "0 failure(s)" in out
        data = json.loads(out_file.read_text())
        assert data["failures"] == []
        assert data["cases_run"] + data["cases_skipped"] == 25

    def test_fuzz_scheduler_filter(self, capsys):
        assert main(["fuzz", "--quick", "--n", "6", "--schedulers", "min_area",
                     "--families", "chain", "--max-cases", "5"]) == 0
        assert "0 failure(s)" in capsys.readouterr().out

    def test_fuzz_refuses_a_negative_max_cases(self, capsys, monkeypatch):
        """A negative bound would slice cases off the end of the matrix
        without saying so; it is refused before the sweep starts."""
        import repro.conformance.fuzz as fuzz

        monkeypatch.setattr(fuzz, "run_fuzz", lambda *a, **kw: pytest.fail("swept"))
        assert main(["fuzz", "--quick", "--max-cases", "-1"]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: --max-cases must be >= 1")
        assert "sweeping" not in captured.out

    def test_fuzz_refuses_max_cases_zero(self, capsys, monkeypatch):
        """``--max-cases 0`` swept nothing and exited 0: the outcome the
        empty-filter refusal exists to prevent."""
        import repro.conformance.fuzz as fuzz

        monkeypatch.setattr(fuzz, "run_fuzz", lambda *a, **kw: pytest.fail("swept"))
        assert main(["fuzz", "--quick", "--max-cases", "0"]) == 2
        captured = capsys.readouterr()
        assert captured.err == "error: --max-cases must be >= 1, got 0\n"
        assert "sweeping" not in captured.out

    def test_fuzz_refuses_failures_into_a_missing_directory(
        self, tmp_path, capsys, monkeypatch
    ):
        """Checked before the sweep: the report write at the end used to die
        with a traceback after every case had run."""
        import repro.conformance.fuzz as fuzz

        monkeypatch.setattr(fuzz, "run_fuzz", lambda *a, **kw: pytest.fail("swept"))
        target = tmp_path / "missing" / "f.json"
        assert main(["fuzz", "--quick", "--max-cases", "3",
                     "--failures", str(target)]) == 2
        out, err = capsys.readouterr()
        assert err == f"error: --failures: directory {target.parent} does not exist\n"
        assert "sweeping" not in out and not target.parent.exists()

    @pytest.mark.parametrize("n", ("0", "-2"))
    def test_fuzz_refuses_n_below_one(self, n, capsys, monkeypatch):
        """Below one job the families used to build empty or clamped
        instances, so the sweep reported 0 failures over nothing."""
        import repro.conformance.fuzz as fuzz

        monkeypatch.setattr(fuzz, "run_fuzz", lambda *a, **kw: pytest.fail("swept"))
        assert main(["fuzz", "--quick", "--n", n, "--max-cases", "3"]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: --n must be >= 1, got {n}")
        assert "sweeping" not in captured.out

    def test_fuzz_refuses_a_negative_seed(self, capsys, monkeypatch):
        """The seed reached every case's RNG, so a CLI input error was
        reported as one scheduler crash per case."""
        import repro.conformance.fuzz as fuzz

        monkeypatch.setattr(fuzz, "run_fuzz", lambda *a, **kw: pytest.fail("swept"))
        assert main(["fuzz", "--quick", "--seed", "-3", "--max-cases", "3"]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: --seed must be >= 0, got -3")
        assert "sweeping" not in captured.out

    def test_fuzz_refuses_filters_that_leave_no_case(self, capsys, monkeypatch):
        """``sun_list`` only runs the independent family: the sweep used
        to pass over 0 cases."""
        import repro.conformance.fuzz as fuzz

        monkeypatch.setattr(fuzz, "run_fuzz", lambda *a, **kw: pytest.fail("swept"))
        assert main(["fuzz", "--schedulers", "sun_list", "--families", "chain"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "--schedulers sun_list" in err and "--families chain" in err

    def test_fuzz_unknown_scheduler(self, capsys):
        assert main(["fuzz", "--schedulers", "nope"]) == 2
        assert "unknown" in capsys.readouterr().err

    def test_schedule_follow_streams_events(self, capsys):
        assert main(["schedule", "--family", "chain", "--n", "6",
                     "--scheduler", "min_area", "--follow"]) == 0
        out = capsys.readouterr().out
        assert out.count("start") >= 6 and out.count("finish") >= 6
        assert "streamed replay" in out and "makespan=" in out
        # events are emitted in nondecreasing virtual-time order
        times = [float(line.split("]")[0].strip("[ "))
                 for line in out.splitlines() if line.startswith("[")]
        assert times == sorted(times)

    @pytest.mark.parametrize("argv", [
        ["--family", "cholesky", "--n", "40", "--d", "3"],
        ["--scheduler", "tetris", "--arrival-rate", "2.0", "--n", "60"],
        ["--family", "lu", "--n", "60", "--d", "4", "--capacity", "32768",
         "--scheduler", "min_time"],
    ], ids=("cholesky-tuple-ids", "tetris-arrivals", "d4-68-bit-images"))
    def test_schedule_follow_prints_the_list_schedule_events(self, argv, capsys):
        """Every printed start and finish is an event of ``list_schedule``
        under FIFO on the scheduler's allocation: starts in dispatch order
        with their allocation and duration, finishes in completion order,
        and at a time point the finishes come before the starts they make
        room for."""
        from repro.core.list_scheduler import fifo_priority, list_schedule
        from repro.experiments.workloads import random_instance
        from repro.instance.instance import with_poisson_arrivals
        from repro.registry import get_scheduler
        from repro.resources.pool import ResourcePool

        args = build_parser().parse_args(["schedule", *argv])
        wl = random_instance(args.family, args.n,
                             ResourcePool.uniform(args.d, args.capacity), seed=args.seed)
        inst = wl.instance
        if args.arrival_rate is not None:
            inst = with_poisson_arrivals(inst, args.arrival_rate, seed=args.seed)
        allocation = get_scheduler(args.scheduler).schedule(inst).allocation
        placements = list_schedule(inst, allocation, fifo_priority).placements

        assert main(["schedule", *argv, "--follow"]) == 0
        lines = [ln for ln in capsys.readouterr().out.splitlines() if ln.startswith("[")]
        starts = [ln for ln in lines if "] start  " in ln]
        finishes = [ln for ln in lines if "] finish " in ln]
        assert len(starts) == len(finishes) == len(placements) == inst.n
        assert starts == [
            f"[{p.start:12.4f}] start  {j!r} alloc={tuple(int(a) for a in p.alloc)} "
            f"dur={p.time:.4f}"
            for j, p in placements.items()
        ]
        dispatched = {j: k for k, j in enumerate(placements)}
        by_finish = sorted(placements, key=lambda j: (placements[j].finish, dispatched[j]))
        assert finishes == [
            f"[{placements[j].finish:12.4f}] finish {j!r}" for j in by_finish
        ]
        # a start follows every finish at or before its time, and precedes
        # every finish after it
        by_repr = {repr(j): j for j in placements}
        done: set = set()
        for ln in lines:
            kind, rest = ln.split("] ", 1)[1].split(None, 1)
            j = by_repr[rest.split(" alloc=")[0]]
            if kind == "finish":
                done.add(j)
                continue
            t = placements[j].start
            assert done >= {k for k, p in placements.items() if p.finish <= t}
            assert not done & {k for k, p in placements.items() if p.finish > t + 1e-9}

    def test_repro_backend_env_is_inert(self, capsys, monkeypatch):
        import warnings

        monkeypatch.delenv("REPRO_BACKEND", raising=False)
        assert main(["schedule", "--n", "12"]) == 0
        unset = capsys.readouterr()
        monkeypatch.setenv("REPRO_BACKEND", "numba")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["schedule", "--n", "12"]) == 0
        assert capsys.readouterr() == unset

    @pytest.mark.parametrize(
        "flag, value",
        [("--d", "0"), ("--capacity", "0"), ("--n", "-3"), ("--n", "0"),
         ("--seed", "-1")],
    )
    def test_schedule_bad_argument_is_a_clean_error(self, flag, value, capsys):
        """Out-of-range workload arguments exit 2 with ``error:`` on stderr,
        as ``repro serve`` answers the same mistakes — the ``ValueError``
        does not escape ``main`` as a traceback."""
        assert main(["schedule", flag, value]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err

    def test_schedule_refuses_an_arrival_rate_whose_gaps_overflow(self, capsys):
        """A mean gap of 1/1e-320 overflows to inf, so every release was
        inf and the run spun in the validator instead of exiting."""
        assert main(["schedule", "--arrival-rate", "1e-320"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "release must be finite and >= 0" in err

    def test_schedule_on_zero_resource_types_names_the_platform(self, capsys):
        assert main(["schedule", "--d", "0"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: platform capacities must be a positive vector")

    def test_schedule_follow_needs_fixed_allocation(self, capsys):
        assert main(["schedule", "--family", "independent", "--n", "6",
                     "--scheduler", "malleable", "--follow"]) == 2
        assert "--follow" in capsys.readouterr().err

    def test_serve_stdio_end_to_end(self, tmp_path, capsys, monkeypatch):
        import io

        requests = [
            {"op": "submit", "jobs": [
                {"id": "a", "demand": [2, 1], "duration": 2.0},
                {"id": "b", "demand": [1, 1], "duration": 1.0, "preds": ["a"]},
            ]},
            {"op": "flush"},
            {"op": "checkpoint", "path": str(tmp_path / "ck.json")},
            {"op": "drain"},
            {"op": "validate"},
            {"op": "shutdown"},
        ]
        monkeypatch.setattr(
            "sys.stdin", io.StringIO("\n".join(json.dumps(r) for r in requests))
        )
        trace_path = tmp_path / "trace.json"
        assert main(["serve", "--capacities", "4", "4",
                     "--trace", str(trace_path)]) == 0
        responses = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
        assert all(r["ok"] for r in responses)
        drain = next(r for r in responses if r["op"] == "drain")
        assert drain["completed"] == 2 and drain["makespan"] == 3.0
        assert next(r for r in responses if r["op"] == "validate")["valid"]
        assert json.loads(trace_path.read_text())["version"] == 3
        assert (tmp_path / "ck.json").exists()

    def test_serve_refuses_a_trace_into_a_missing_directory(
        self, tmp_path, capsys, monkeypatch
    ):
        """Refused before a request is read (and before ``--supervise``
        would start a worker), not at shutdown with the trace lost."""
        import io

        monkeypatch.setattr("sys.stdin", io.StringIO('{"op": "shutdown"}\n'))
        monkeypatch.setattr("repro.service.supervisor.supervise",
                            lambda cmd, **kw: pytest.fail("worker started"))
        target = tmp_path / "missing" / "x.json"
        for extra in ([], ["--supervise", "--journal", str(tmp_path / "j.jsonl")]):
            assert main(["serve", "--capacities", "4", "4", *extra,
                         "--trace", str(target)]) == 2
            out, err = capsys.readouterr()
            assert out == ""
            assert err == f"error: --trace: directory {target.parent} does not exist\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == []

    def test_serve_refuses_a_trace_under_a_regular_file(self, tmp_path, capsys, monkeypatch):
        import io

        monkeypatch.setattr("sys.stdin", io.StringIO('{"op": "shutdown"}\n'))
        blocker = tmp_path / "file"
        blocker.write_text("")
        assert main(["serve", "--capacities", "4", "4",
                     "--trace", str(blocker / "x.json")]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"error: --trace: directory {blocker} does not exist\n"

    def test_serve_refuses_a_trace_into_an_unwritable_directory(
        self, tmp_path, capsys, monkeypatch
    ):
        import io

        monkeypatch.setattr("sys.stdin", io.StringIO('{"op": "shutdown"}\n'))
        monkeypatch.setattr("repro.service.supervisor.supervise",
                            lambda cmd, **kw: pytest.fail("worker started"))
        access = os.access
        monkeypatch.setattr(
            "repro.cli.os.access",
            lambda p, mode: False if p == str(tmp_path) else access(p, mode),
        )
        for extra in ([], ["--supervise", "--journal", str(tmp_path / "j.jsonl")]):
            assert main(["serve", "--capacities", "4", "4", *extra,
                         "--trace", str(tmp_path / "x.json")]) == 2
            out, err = capsys.readouterr()
            assert out == ""
            assert err == f"error: --trace: directory {tmp_path} is not writable\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == []

    @pytest.mark.parametrize("rng", ['"garbage"', '{"bit_generator": "PCG64"}'])
    def test_serve_refuses_a_journal_with_a_malformed_rng(self, tmp_path, capsys, rng):
        journal = tmp_path / "j.jsonl"
        journal.write_text(
            '{"format": "repro-journal/1", "base_seq": 0}\n'
            '{"seq": 1, "op": "drain", "rng": ' + rng + '}\n'
        )
        assert main(["serve", "--journal", str(journal)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot recover from {journal}: ")
        assert "journal record seq 1: malformed rng" in err

    def test_serve_restore_resumes(self, tmp_path, capsys, monkeypatch):
        import io

        from repro.service import SchedulingSession, save_session
        from repro.service.session import JobSpec

        s = SchedulingSession([4])
        s.submit([JobSpec("x", (2,), 2.0)])
        s.advance(1.0)
        ck = tmp_path / "resume.json"
        save_session(s, str(ck))
        monkeypatch.setattr(
            "sys.stdin", io.StringIO(json.dumps({"op": "drain"}) + "\n")
        )
        assert main(["serve", "--restore", str(ck)]) == 0
        resp = json.loads(capsys.readouterr().out.splitlines()[0])
        assert resp["makespan"] == 2.0 and resp["completed"] == 1

    def test_serve_supervised_restore_into_a_journal_is_refused(
        self, tmp_path, capsys, monkeypatch
    ):
        """The supervisor hands ``--restore`` on to every child, so each
        restart would reload the checkpoint over the journal and drop
        every op it acknowledged.  Refused before anything is spawned."""
        from repro.service import SchedulingSession, save_session

        spawned = []
        monkeypatch.setattr("repro.service.supervisor.supervise",
                            lambda cmd, **kw: spawned.append(cmd) or 0)
        ck = tmp_path / "ck.json"
        save_session(SchedulingSession([4]), str(ck))
        journal = tmp_path / "j.jsonl"
        argv = ["serve", "--supervise", "--journal", str(journal),
                "--restore", str(ck)]
        assert main(argv) == 2
        assert not spawned and not journal.exists()
        err = capsys.readouterr().err
        # the hint: seed once with --restore, then supervise the journal
        assert f"--journal {journal} --restore {ck}" in err
        assert f"supervise with '--journal {journal}' alone" in err

    @pytest.mark.parametrize("flags, needs", [
        (["--supervise"], "--journal"),
        (["--snapshot", "s.json"], "--journal"),
        (["--chaos", "op-begin:1.0"], "--journal"),
        (["--checkpoint-every", "4"], "--journal"),
        (["--backoff-base", "1"], "--supervise"),
        (["--backoff-cap", "2"], "--supervise"),
        (["--max-restarts", "3"], "--supervise"),
    ])
    def test_serve_refuses_a_flag_without_the_one_it_needs(
        self, flags, needs, tmp_path, capsys, monkeypatch
    ):
        """Each used to be ignored with exit 0: a supervised worker without
        a journal restarted empty, dropping every acknowledged job; no
        snapshot was written; no fault was injected; no backoff applied."""
        import io

        spawned = []
        monkeypatch.setattr("repro.service.supervisor.supervise",
                            lambda cmd, **kw: spawned.append(cmd) or 0)
        monkeypatch.setattr(sys, "stdin", io.StringIO(""))
        monkeypatch.delenv("REPRO_CHAOS", raising=False)
        monkeypatch.chdir(tmp_path)
        assert main(["serve", *flags]) == 2
        assert not spawned and not list(tmp_path.iterdir())
        err = capsys.readouterr().err
        assert err.startswith(f"error: {flags[0]} requires {needs}")

    def test_serve_supervise_without_a_journal_names_the_fix(self, capsys, monkeypatch):
        monkeypatch.delenv("REPRO_CHAOS", raising=False)
        assert main(["serve", "--supervise"]) == 2
        err = capsys.readouterr().err
        assert "lose every acknowledged job" in err
        assert "'repro serve --supervise --journal FILE'" in err

    def test_serve_refuses_repro_chaos_without_a_journal(self, capsys, monkeypatch):
        import io

        monkeypatch.setattr(sys, "stdin", io.StringIO(""))
        monkeypatch.setenv("REPRO_CHAOS", "op-begin:1.0")
        assert main(["serve"]) == 2
        assert capsys.readouterr().err.startswith("error: REPRO_CHAOS requires --journal")

    @pytest.mark.parametrize("value", ("nan", "-inf"))
    def test_serve_restore_refuses_a_non_finite_compact_threshold(
        self, value, tmp_path, capsys, monkeypatch
    ):
        """The override used to be assigned unchecked: compaction silently
        stopped, and every checkpoint carried a threshold that is not JSON
        and that restore refuses."""
        import io

        from repro.service import SchedulingSession, save_session

        ck = tmp_path / "ck.json"
        save_session(SchedulingSession([4]), str(ck))
        monkeypatch.setattr(sys, "stdin", io.StringIO(""))
        assert main(["serve", "--restore", str(ck), f"--compact-threshold={value}"]) == 2
        assert capsys.readouterr().err.startswith("error: --compact-threshold ")

    @pytest.mark.parametrize("value", ("nan", "-inf"))
    def test_serve_journal_refuses_a_non_finite_compact_threshold(
        self, value, tmp_path, capsys, monkeypatch
    ):
        """The recovered-journal path took the same unchecked override;
        refused before the snapshot or the journal is touched."""
        import io

        from repro.service import JournaledSession, SchedulingSession
        from repro.service.session import JobSpec

        journal = tmp_path / "j.jsonl"
        js = JournaledSession(SchedulingSession([4]), str(journal),
                              str(journal) + ".snapshot.json")
        js.checkpoint()
        js.submit([JobSpec("a", (2,), 1.0)])
        js.close()
        before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
        monkeypatch.setattr(sys, "stdin", io.StringIO(""))
        assert main(["serve", "--journal", str(journal),
                     f"--compact-threshold={value}"]) == 2
        assert capsys.readouterr().err.startswith("error: --compact-threshold ")
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before

    def test_serve_refuses_the_retired_flush_delay_point(self, tmp_path, capsys, monkeypatch):
        """``flush-delay`` slept only with a delay no caller could pass, so
        ``--chaos flush-delay`` was accepted and injected nothing."""
        import io

        monkeypatch.setattr(sys, "stdin", io.StringIO(""))
        monkeypatch.delenv("REPRO_CHAOS", raising=False)
        assert main(["serve", "--journal", str(tmp_path / "j.jsonl"),
                     "--chaos", "flush-delay"]) == 2
        assert "unknown chaos point(s) ['flush-delay']" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    def test_serve_bad_restore(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{}")
        assert main(["serve", "--restore", str(bad)]) == 2
        assert "cannot restore" in capsys.readouterr().err

    def test_serve_refuses_a_nan_batch_interval(self, capsys, monkeypatch):
        """NaN never compares due, so interval admission would be off."""
        import io

        monkeypatch.setattr(sys, "stdin", io.StringIO(""))
        assert main(["serve", "--batch-interval", "nan"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: batch interval must be >= 0, got nan")
