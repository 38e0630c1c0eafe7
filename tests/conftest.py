"""Shared pytest fixtures; instance builders live in ``helpers.py``."""

from __future__ import annotations

import pytest
from hypothesis import settings

from helpers import tiny_instance
from repro.instance.instance import Instance
from repro.resources.pool import ResourcePool

# Tier-1 draws the same examples on every run and keeps no example
# database, so a pass or a failure reproduces from the commit alone.
# ``pytest --hypothesis-profile=explore`` draws fresh examples instead and
# prints the blob that replays a failing one; each test's ``max_examples``
# is the same under both.
settings.register_profile("tier1", derandomize=True, database=None)
settings.register_profile("explore", derandomize=False, print_blob=True)
settings.load_profile("tier1")


@pytest.fixture
def diamond_instance() -> Instance:
    return tiny_instance()


@pytest.fixture
def pool2() -> ResourcePool:
    return ResourcePool.of(8, 8)
