"""Small shared utilities: seeded RNG handling and crash-safe file
replacement."""

from repro.util.atomic import atomic_write_text, fsync_directory
from repro.util.rng import ensure_rng

__all__ = [
    "ensure_rng",
    "atomic_write_text",
    "fsync_directory",
]
