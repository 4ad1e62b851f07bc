"""How many CPUs this process may use.

The lint engine sizes its default worker pool with this count, and the
streamed task-request generator its sampling threads (under a cap of
its own), so the two read the host the same way.
"""

from __future__ import annotations

import os

__all__ = ["usable_cpus"]


def usable_cpus() -> int:
    """The CPUs this process may run on: its affinity mask where the
    platform has one (so ``taskset`` and container CPU sets count),
    else every CPU of the host; at least 1."""
    if hasattr(os, "sched_getaffinity"):
        return max(1, len(os.sched_getaffinity(0)))
    return max(1, os.cpu_count() or 1)
