"""Property-based equivalence: compiled dispatch vs. the frozen references.

The compiled engine must reproduce the schedules of both frozen
generations event for event — identical start times, not merely identical
makespans — across random DAG shapes, seeds, resource dimensions and
priority rules.  ``d`` ranges over 1..13 and the capacities sit either
side of ``d * bits = 64`` (5-bit fields at capacity 12: twelve types are a
word, thirteen are not; ``2**15 - 1`` vs ``2**15``: four types at 16 bits
are a word, at 17 bits they are not), so demand images that fit a
``uint64`` and images only python ints can carry are both exercised.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.list_scheduler import (
    bottom_level_priority,
    fifo_priority,
    list_schedule,
    lpt_priority,
    spt_priority,
)
from repro.dag.generators import erdos_renyi_dag, layered_random
from repro.engine.reference import (
    reference_list_schedule,
    reference_pr1_list_schedule,
)
from repro.instance.compiled import compile_instance
from repro.instance.instance import make_instance, with_poisson_arrivals
from repro.resources.pool import ResourcePool
from repro.resources.vector import ResourceVector

RULES = [fifo_priority, lpt_priority, spt_priority, bottom_level_priority]


def rigid_instance(shape, n_seed, d, capacity, rigid_seed):
    """A random rigid-allocation instance of the requested shape."""
    rng = np.random.default_rng(rigid_seed)
    if shape == "layered":
        dag = layered_random(4, 5, p=0.4, seed=n_seed)
    else:
        dag = erdos_renyi_dag(18, 0.2, seed=n_seed)
    order = dag.topological_order()
    hi = max(2, capacity // 2 + 1)
    allocs = {j: ResourceVector(rng.integers(1, hi, size=d)) for j in order}
    durations = {j: float(rng.uniform(0.25, 3.0)) for j in order}
    pool = ResourcePool.uniform(d, capacity)

    def factory(j):
        t = durations[j]
        return lambda a: t

    inst = make_instance(dag, pool, factory, candidates_factory=lambda j: (allocs[j],))
    return inst, allocs


@settings(max_examples=40, deadline=None)
@given(
    shape=st.sampled_from(["layered", "erdos"]),
    n_seed=st.integers(0, 10_000),
    d=st.integers(1, 13),
    capacity=st.sampled_from([6, 12, 2**15 - 1, 2**15]),
    rule_idx=st.integers(0, len(RULES) - 1),
)
def test_compiled_dispatch_reproduces_references(shape, n_seed, d, capacity, rule_idx):
    inst, alloc = rigid_instance(shape, n_seed, d, capacity, rigid_seed=n_seed + 1)
    assert compile_instance(inst).packable == (d * (capacity.bit_length() + 1) <= 64)
    rule = RULES[rule_idx]
    new = list_schedule(inst, alloc, rule)
    pr1 = reference_pr1_list_schedule(inst, alloc, rule)
    old = reference_list_schedule(inst, alloc, rule)
    # event-for-event: identical starts (and so identical finishes)
    assert new.starts == pr1.starts
    assert new.starts == old.starts
    new.validate()


@settings(max_examples=20, deadline=None)
@given(
    n_seed=st.integers(0, 10_000),
    d=st.integers(1, 13),
    capacity=st.sampled_from([12, 2**15]),
    rate=st.sampled_from([0.5, 3.0]),
)
def test_compiled_dispatch_matches_pr1_with_releases(n_seed, d, capacity, rate):
    """Online arrivals: the batch loop's release gating must match the
    PR-1 kernel's (the pre-kernel loop cannot express releases at all)."""
    inst, alloc = rigid_instance("layered", n_seed, d, capacity, rigid_seed=n_seed + 1)
    online = with_poisson_arrivals(inst, rate=rate, seed=n_seed)
    new = list_schedule(online, alloc, bottom_level_priority)
    pr1 = reference_pr1_list_schedule(online, alloc, bottom_level_priority)
    assert new.starts == pr1.starts
    new.validate()


@settings(max_examples=15, deadline=None)
@given(n_seed=st.integers(0, 10_000), d=st.integers(1, 4))
def test_vector_and_dict_key_forms_agree(n_seed, d):
    """Every rule's ``as_array`` form must realize the exact order of its
    dict form (stable argsort vs. python tuple sort)."""
    inst, alloc = rigid_instance("erdos", n_seed, d, 10, rigid_seed=n_seed + 2)
    ci = compile_instance(inst)
    times = {j: inst.time(j, alloc[j]) for j in inst.jobs}
    times_vec = np.array([times[j] for j in ci.order])
    for rule in RULES:
        keys_arr = rule.as_array(inst, alloc, times_vec)
        keys_map = rule(inst, alloc, times)
        assert ci.rank_permutation(keys_arr)[1] == ci.rank_permutation(keys_map)[1]
