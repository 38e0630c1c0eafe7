"""Tests for instance JSON serialization.

Beyond structural round-trips, this suite pins the serialize module's
identity contract: round-tripping an instance is *schedule preserving* —
the same scheduler produces the identical schedule (event for event, via
the ``repr`` id mapping) on the round-tripped instance.  The contract was
previously violated by lexicographic job reordering (``"10" < "2"``) and
by force-pinning every job's candidate set on load.
"""

import json

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from helpers import tiny_instance
from repro.core.two_phase import MoldableScheduler
from repro.experiments.workloads import random_instance
from repro.instance.instance import with_poisson_arrivals
from repro.instance.serialize import FORMAT_VERSION, instance_from_json, instance_to_json
from repro.jobs.candidates import full_grid, geometric_grid
from repro.registry import get_scheduler
from repro.resources.pool import ResourcePool


# the canonical event list is the conformance harness's definition of
# schedule identity — share it so the two cannot drift
from repro.conformance.fuzz import portable_events as _events


class TestRoundTrip:
    def test_structure_preserved(self):
        inst = tiny_instance(seed=1, d=2, capacity=4)
        text = instance_to_json(inst, full_grid)
        back = instance_from_json(text)
        assert back.n == inst.n
        assert back.pool.capacities == inst.pool.capacities
        assert back.dag.num_edges == inst.dag.num_edges

    def test_insertion_order_preserved(self):
        """Jobs restore in insertion order, not lexicographic repr order
        (``"10" < "2"`` used to reshuffle every instance with >= 10 jobs)."""
        pool = ResourcePool.uniform(2, 8)
        inst = random_instance("independent", 12, pool, seed=3).instance
        back = instance_from_json(instance_to_json(inst, geometric_grid))
        assert list(back.jobs) == [repr(j) for j in inst.jobs]
        assert back.dag.topological_order() == [
            repr(j) for j in inst.dag.topological_order()
        ]

    def test_times_preserved_on_grid(self):
        inst = tiny_instance(seed=2, d=2, capacity=4)
        back = instance_from_json(instance_to_json(inst, full_grid))
        by_repr = {repr(j): j for j in inst.jobs}
        for jid2, job2 in back.jobs.items():
            j1 = by_repr[jid2]
            for c in full_grid(back.pool):
                assert job2.time(c) == pytest.approx(inst.time(j1, c), rel=1e-12)

    def test_schedulers_agree_on_roundtrip(self):
        """Scheduling the original and the round-tripped instance with the
        same parameters yields the same makespan (same profiles, same DAG,
        same candidate enumeration — unpinned jobs stay unpinned)."""
        inst = tiny_instance(seed=3, d=2, capacity=4)
        back = instance_from_json(instance_to_json(inst, full_grid))
        sched = MoldableScheduler(allocator="lp", strategy=full_grid)
        r1 = sched.schedule(inst)
        r2 = sched.schedule(back)
        assert r2.makespan == pytest.approx(r1.makespan, rel=1e-9)
        assert r2.lower_bound == pytest.approx(r1.lower_bound, rel=1e-6)

    def test_roundtrip_schedule_identity_regression(self):
        """The measured PR-3 bug: independent/n=12/d=3/seed=3 round-tripped
        to a *different* schedule under lexicographic job reordering."""
        pool = ResourcePool.uniform(3, 16)
        inst = random_instance("independent", 12, pool, seed=3).instance
        back = instance_from_json(instance_to_json(inst, geometric_grid))
        for name in ("ours", "min_time", "balanced"):
            r1 = get_scheduler(name).schedule(inst)
            r2 = get_scheduler(name).schedule(back)
            assert _events(r2.schedule, reprify=False) == _events(
                r1.schedule, reprify=True
            ), name

    def test_pinned_flag_honored(self):
        """Unpinned jobs stay unpinned on load; pinned jobs stay pinned."""
        inst = tiny_instance(seed=0, d=2, capacity=3)
        assert all(job.candidates is None for job in inst.jobs.values())
        back = instance_from_json(instance_to_json(inst, full_grid))
        assert all(job.candidates is None for job in back.jobs.values())

        pinned = {j: tuple(geometric_grid(inst.pool)) for j in inst.jobs}
        from repro.jobs.job import Job

        inst_pinned = tiny_instance(seed=0, d=2, capacity=3)
        inst_pinned.jobs.update(
            {
                j: Job(id=j, time_fn=job.time_fn, candidates=pinned[j])
                for j, job in inst_pinned.jobs.items()
            }
        )
        back2 = instance_from_json(instance_to_json(inst_pinned, full_grid))
        for jid, job in back2.jobs.items():
            assert job.candidates is not None
            assert len(job.candidates) == len(pinned[next(iter(pinned))])

    def test_pinned_job_with_rejecting_time_fn_serializes(self):
        """A pinned job whose time function rejects off-candidate
        allocations (the sanctioned rigid-job pattern) must serialize: its
        µ-cap closure points fall back to monotone completion."""
        from repro.dag.graph import DAG
        from repro.instance.instance import Instance
        from repro.jobs.job import Job
        from repro.resources.pool import ResourcePool
        from repro.resources.vector import ResourceVector

        alloc = ResourceVector((16,))

        def rigid_time(p):
            if tuple(p) != (16,):
                raise ValueError(f"unsupported allocation {tuple(p)}")
            return 1.0

        inst = Instance(
            jobs={0: Job(id=0, time_fn=rigid_time, candidates=(alloc,))},
            dag=DAG(nodes=[0]),
            pool=ResourcePool.of(16),
        )
        back = instance_from_json(instance_to_json(inst))
        assert back.jobs["0"].candidates == (alloc,)
        assert back.jobs["0"].time(alloc) == 1.0

    def test_pinned_flag_and_version(self):
        inst = tiny_instance(seed=0, d=2, capacity=3)
        data = json.loads(instance_to_json(inst, full_grid))
        assert data["version"] == FORMAT_VERSION == 2
        assert all(not rec["pinned"] for rec in data["jobs"])
        assert [rec["index"] for rec in data["jobs"]] == list(range(inst.n))

    def test_version1_files_still_load(self):
        """v1 archives keep their original semantics: file order, and every
        job pinned to its serialized grid (the v1 loader's behavior), so
        results saved under the old format reproduce unchanged."""
        inst = tiny_instance(seed=0, d=2, capacity=3)
        data = json.loads(instance_to_json(inst, full_grid))
        data["version"] = 1
        for rec in data["jobs"]:
            del rec["index"]
        back = instance_from_json(data)
        assert back.n == inst.n
        assert all(job.candidates is not None for job in back.jobs.values())

    def test_v2_requires_complete_indices(self):
        """A v2 file with a missing or duplicated index must error, never
        silently load in file order."""
        inst = tiny_instance(seed=0, d=2, capacity=3)
        data = json.loads(instance_to_json(inst, full_grid))
        broken = json.loads(json.dumps(data))
        del broken["jobs"][1]["index"]
        with pytest.raises(ValueError, match="index"):
            instance_from_json(broken)
        dup = json.loads(json.dumps(data))
        dup["jobs"][1]["index"] = dup["jobs"][0]["index"]
        with pytest.raises(ValueError, match="duplicate"):
            instance_from_json(dup)

    def test_bad_version(self):
        inst = tiny_instance(seed=0, d=2, capacity=3)
        data = json.loads(instance_to_json(inst, full_grid))
        data["version"] = 9
        with pytest.raises(ValueError, match="version"):
            instance_from_json(data)

    def test_empty_capacities_are_refused(self):
        inst = tiny_instance(seed=0, d=2, capacity=3)
        data = json.loads(instance_to_json(inst, full_grid))
        data["platform"]["capacities"] = []
        data["platform"]["names"] = []
        with pytest.raises(ValueError, match="platform capacities must be a positive vector"):
            instance_from_json(data)

    def test_fractional_amounts_are_refused_not_truncated(self):
        """A profile alloc of ``[1.5, 1]`` used to load as ``(1, 1)`` and a
        capacity of ``3.5`` as ``3``: each is refused, an alloc by job."""
        inst = tiny_instance(seed=0, d=2, capacity=3)
        data = json.loads(instance_to_json(inst, full_grid))
        bad = json.loads(json.dumps(data))
        rec = bad["jobs"][1]
        rec["profile"][0]["alloc"] = [1.5, 1]
        with pytest.raises(
            ValueError, match=rf"^job {rec['id']!r}: profile alloc: .*whole numbers"
        ):
            instance_from_json(bad)
        data["platform"]["capacities"] = [3.5, 3]
        with pytest.raises(ValueError, match=r"^platform capacities: .*whole numbers"):
            instance_from_json(data)

    def test_a_repeated_or_unhashable_id_is_refused_by_record(self):
        """Two records with one ``id`` used to load as one job (the second
        overwrote the first: four records, ``n = 3``), and a list ``id``
        died with a ``TypeError``."""
        inst = tiny_instance(seed=0, d=2, capacity=3, edges=(), n=4)
        data = json.loads(instance_to_json(inst, full_grid))
        assert instance_from_json(data).n == 4
        dup = json.loads(json.dumps(data))
        dup["jobs"][3]["id"] = dup["jobs"][1]["id"]
        with pytest.raises(ValueError, match=r"job record 3: duplicate id '1'"):
            instance_from_json(dup)
        listed = json.loads(json.dumps(data))
        listed["jobs"][2]["id"] = [2]
        with pytest.raises(ValueError, match=r"job record 2: id \[2\] is not hashable"):
            instance_from_json(listed)

    def test_unknown_edge_job(self):
        inst = tiny_instance(seed=0, d=2, capacity=3)
        data = json.loads(instance_to_json(inst, full_grid))
        data["edges"].append(["'ghost'", data["jobs"][0]["id"]])
        with pytest.raises(ValueError, match="unknown job"):
            instance_from_json(data)


class TestRoundTripScheduleIdentity:
    """Hypothesis property: ``schedule(from_json(to_json(inst)))`` matches
    ``schedule(inst)`` event for event across families, seeds, d and
    arrival scenarios."""

    @given(
        family=st.sampled_from(["independent", "layered", "forkjoin", "cholesky", "sp"]),
        d=st.integers(min_value=1, max_value=4),
        seed=st.integers(min_value=0, max_value=10**6),
        scheduler=st.sampled_from(["ours", "min_time", "tetris"]),
        arrivals=st.booleans(),
    )
    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_roundtrip_identity(self, family, d, seed, scheduler, arrivals):
        pool = ResourcePool.uniform(d, 8)
        inst = random_instance(family, 11, pool, seed=seed).instance
        if arrivals:
            inst = with_poisson_arrivals(inst, 2.0, seed=seed)
        back = instance_from_json(instance_to_json(inst, geometric_grid))
        spec = get_scheduler(scheduler)
        r1 = spec.schedule(inst)
        r2 = spec.schedule(back)
        assert _events(r2.schedule, reprify=False) == _events(r1.schedule, reprify=True)
