"""Tests for the engine's dispatch-time-allocation loop, reservation
profiles, shelves and online arrivals."""

import pytest

from helpers import rigid_unit_job, tiny_instance
from repro.core.list_scheduler import list_schedule
from repro.dag.graph import DAG
from repro.engine.dispatch import TIME_EPS, run_dynamic
from repro.engine.profile import ReservationProfile
from repro.engine.shelves import pack_shelves, stack_shelves
from repro.instance.instance import (
    Instance,
    with_poisson_arrivals,
    with_release_times,
)
from repro.jobs.candidates import full_grid
from repro.jobs.job import Job
from repro.resources.pool import ResourcePool
from repro.resources.vector import ResourceVector


def balanced_allocation(inst):
    table = inst.candidate_table(full_grid)
    return {j: min(es, key=lambda e: e.time * e.area).alloc for j, es in table.items()}


def _policy_instance(durations, edges=()):
    """Single-type pool of capacity 2; job ``j`` runs ``durations[j]`` on
    any allocation."""
    jobs = {
        j: Job(id=j, time_fn=lambda a, t=t: t, candidates=(ResourceVector((1,)),))
        for j, t in durations.items()
    }
    return Instance(jobs=jobs, dag=DAG(nodes=list(durations), edges=list(edges)),
                    pool=ResourcePool.of(2))


def _greedy(demand):
    """Start every ready job on ``demand[j]`` units while it fits."""
    def policy(inst, ready, avail):
        free = avail[0]
        starts = []
        for j in ready:
            if demand[j] <= free:
                free -= demand[j]
                starts.append((j, ResourceVector((demand[j],))))
        return starts
    return policy


class TestDynamicLoop:
    """The dispatch-time-allocation loop (Tetris/HEFT) refuses a policy
    that misbehaves, and batches near-simultaneous completions."""

    def test_a_non_ready_job_is_refused(self):
        inst = _policy_instance({"a": 1.0, "b": 1.0}, edges=[("a", "b")])
        with pytest.raises(RuntimeError, match="policy started non-ready job 'b'"):
            run_dynamic(inst, lambda i, ready, avail: [("b", ResourceVector((1,)))])

    def test_an_allocation_outside_the_pool_is_refused(self):
        inst = _policy_instance({"a": 1.0})
        with pytest.raises(ValueError, match=r"allocation \(3,\) exceeds capacities \(2,\)"):
            run_dynamic(inst, lambda i, ready, avail: [("a", ResourceVector((3,)))])

    def test_an_overcommit_is_refused(self):
        inst = _policy_instance({"a": 1.0, "b": 1.0})
        def both(i, ready, avail):  # each fits alone, not together
            return [(j, ResourceVector((2,))) for j in ready]

        with pytest.raises(RuntimeError, match=r"overcommitted: \(2,\) vs available \(0,\)"):
            run_dynamic(inst, both)

    def test_a_policy_that_stalls_is_refused(self):
        inst = _policy_instance({"a": 1.0, "b": 1.0})
        with pytest.raises(RuntimeError, match="stalled with ready jobs and an idle platform"):
            run_dynamic(inst, lambda i, ready, avail: [])

    def test_completions_within_time_eps_free_capacity_before_one_pass(self):
        # a and b each hold one of the two units and finish 1e-13 apart;
        # c needs both.  One batch frees both units, so the policy never
        # sees a half-free platform and c starts at the batch's time.
        inst = _policy_instance({"a": 1.0, "b": 1.0 + 1e-13, "c": 1.0})
        assert 1e-13 < TIME_EPS
        greedy = _greedy({"a": 1, "b": 1, "c": 2})
        seen = []

        def policy(i, ready, avail):
            seen.append(avail)
            return greedy(i, ready, avail)

        s = run_dynamic(inst, policy)
        assert (1,) not in seen
        assert [s.placements[j].start for j in "abc"] == [0.0, 0.0, 1.0]


class TestReservationProfile:
    def test_earliest_fit_on_empty_profile(self):
        p = ReservationProfile((4, 4))
        assert p.earliest_fit(3.0, (2, 2), 1.0) == 3.0

    def test_reservation_blocks_interval(self):
        p = ReservationProfile((4,))
        p.reserve(0.0, 2.0, (3,))
        # demand 2 cannot overlap the reservation; earliest start is its finish
        assert p.earliest_fit(0.0, (2,), 1.0) == pytest.approx(2.0)
        # demand 1 fits alongside immediately
        assert p.earliest_fit(0.0, (1,), 1.0) == pytest.approx(0.0)

    def test_usage_half_open(self):
        p = ReservationProfile((4,))
        p.reserve(0.0, 2.0, (3,))
        assert p.usage_at(2.0).tolist() == [0]
        assert p.usage_at(1.0).tolist() == [3]


class TestShelves:
    def test_first_fit_and_heights(self):
        alloc = {"a": (2,), "b": (2,), "c": (3,)}
        times = {"a": 3.0, "b": 2.0, "c": 1.0}
        shelves = pack_shelves(["a", "b", "c"], alloc, times, (4,))
        assert [s.jobs for s in shelves] == [["a", "b"], ["c"]]
        placements, end = stack_shelves(shelves, alloc, times)
        assert placements["c"].start == pytest.approx(3.0)
        assert end == pytest.approx(4.0)


class TestOnlineArrivals:
    def test_release_delays_start(self):
        pool = ResourcePool.of(4)
        jobs = {i: rigid_unit_job(i, 1, 0) for i in range(3)}
        inst = Instance(jobs=jobs, dag=DAG(nodes=range(3)), pool=pool)
        inst = with_release_times(inst, {0: 0.0, 1: 2.5, 2: 0.0})
        alloc = {i: ResourceVector((1,)) for i in range(3)}
        s = list_schedule(inst, alloc)
        s.validate()
        assert s.placements[0].start == pytest.approx(0.0)
        assert s.placements[2].start == pytest.approx(0.0)
        assert s.placements[1].start == pytest.approx(2.5)
        assert s.makespan == pytest.approx(3.5)

    def test_release_and_precedence_jointly_gate(self):
        pool = ResourcePool.of(2)
        jobs = {i: rigid_unit_job(i, 1, 0) for i in range(2)}
        inst = Instance(jobs=jobs, dag=DAG(nodes=range(2), edges=[(0, 1)]), pool=pool)
        alloc = {i: ResourceVector((1,)) for i in range(2)}
        # successor released before its predecessor finishes: precedence wins
        s = list_schedule(with_release_times(inst, {1: 0.5}), alloc)
        assert s.placements[1].start == pytest.approx(1.0)
        # successor released after: the release wins
        s = list_schedule(with_release_times(inst, {1: 4.0}), alloc)
        assert s.placements[1].start == pytest.approx(4.0)
        s.validate()

    def test_poisson_arrivals_through_moldable_pipeline(self):
        inst = tiny_instance(seed=7, d=2, capacity=6)
        online = with_poisson_arrivals(inst, rate=1.5, seed=3)
        assert online.has_releases
        # releases are deterministic and topologically monotone on a chain
        again = with_poisson_arrivals(inst, rate=1.5, seed=3)
        assert online.release_times() == again.release_times()
        alloc = balanced_allocation(online)
        s = list_schedule(online, alloc)
        s.validate()  # validates release times as well
        offline = list_schedule(inst, alloc)
        assert s.makespan >= offline.makespan - 1e-12

    def test_dynamic_policy_respects_releases(self):
        from repro.baselines.tetris import tetris_scheduler

        inst = tiny_instance(seed=11, d=2, capacity=6)
        online = with_poisson_arrivals(inst, rate=1.0, seed=5)
        res = tetris_scheduler(online)
        res.schedule.validate()
        rel = online.release_times()
        for j, p in res.schedule.placements.items():
            assert p.start >= rel[j] - 1e-9

    def test_offline_planners_reject_releases(self):
        from repro.baselines.backfill import backfill_scheduler
        from repro.baselines.level_shelf import level_shelf_scheduler
        from repro.malleable.scheduler import malleable_scheduler

        inst = with_poisson_arrivals(tiny_instance(seed=0), rate=1.0, seed=0)
        for fn in (backfill_scheduler, level_shelf_scheduler, malleable_scheduler):
            with pytest.raises(ValueError, match="release"):
                fn(inst)

    @pytest.mark.parametrize("release", (float("inf"), float("nan"), -1.0))
    def test_job_refuses_a_release_that_is_not_finite_and_non_negative(self, release):
        """An infinite release never gates open, so the event loop would
        spin on it; a Poisson stream whose mean gap overflows produces one."""
        with pytest.raises(ValueError, match="release must be finite and >= 0"):
            Job(id=0, time_fn=lambda p: 1.0, release=release)
        with pytest.raises(ValueError, match="release must be finite and >= 0"):
            with_poisson_arrivals(tiny_instance(seed=0), rate=1e-320, seed=0)

    def test_validate_flags_release_violation(self):
        pool = ResourcePool.of(2)
        jobs = {0: rigid_unit_job(0, 1, 0)}
        inst = Instance(jobs=jobs, dag=DAG(nodes=[0]), pool=pool)
        inst = with_release_times(inst, {0: 3.0})
        from repro.sim.schedule import Schedule, ScheduledJob

        bad = Schedule(
            instance=inst,
            placements={0: ScheduledJob(job_id=0, start=0.0, time=1.0,
                                        alloc=ResourceVector((1,)))},
        )
        with pytest.raises(ValueError, match="release"):
            bad.validate()

    def test_serialize_round_trips_releases(self):
        from repro.instance.serialize import instance_from_json, instance_to_json

        inst = with_poisson_arrivals(tiny_instance(seed=1), rate=2.0, seed=1)
        back = instance_from_json(instance_to_json(inst))
        rel = {repr(j): r for j, r in inst.release_times().items()}
        assert back.release_times() == rel
