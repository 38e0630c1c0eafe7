"""Re-export of :func:`repro.service.client.pick_free_port`, kept only
for ``benchmarks/stack/harness.py``, which still imports it from here.
Move that import to :mod:`repro.service.client` and delete this module.
"""

from repro.service.client import pick_free_port

__all__ = ["pick_free_port"]
