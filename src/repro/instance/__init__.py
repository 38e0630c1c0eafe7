"""Problem instances: jobs + precedence DAG + resource pool (Section 3).

:mod:`repro.instance.compiled` holds the array-native lowering of an
instance (release vector, allocation matrix, priority ranks, packed
demand images) that the scheduling engine's hot paths run on, over the
positions of the instance's :class:`~repro.dag.graph.DAG`.
"""

from repro.instance.compiled import CompiledInstance, compile_instance
from repro.instance.instance import Instance, AllocationMap, make_instance

__all__ = [
    "Instance",
    "AllocationMap",
    "make_instance",
    "CompiledInstance",
    "compile_instance",
]
