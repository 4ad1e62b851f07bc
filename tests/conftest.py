"""Shared fixtures: small, session-cached datasets so tests stay fast."""

from __future__ import annotations

import numpy as np
import pytest

from repro.experiments.datasets import fleet_series, workload_dataset
from repro.sim import ClusterSimulator, SimConfig
from repro.synth import (
    GoogleConfig,
    generate_machines,
    generate_task_requests,
)


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(12345)


@pytest.fixture(scope="session")
def small_workload():
    """Small-scale workload dataset (Google + all grids)."""
    return workload_dataset("small", seed=0)


@pytest.fixture(scope="session")
def small_series():
    """Per-machine series of the small simulated cluster (16 machines, 2 days)."""
    return fleet_series("small", seed=0)


@pytest.fixture(scope="session")
def tiny_sim_result():
    """A very small simulation for event-level assertions."""
    rng = np.random.default_rng(42)
    machines = generate_machines(6, rng)
    config = GoogleConfig(busy_window=None)
    requests = generate_task_requests(
        horizon=8 * 3600.0, seed=43, config=config, tasks_per_hour=40.0
    )
    sim = ClusterSimulator(machines, SimConfig(), seed=44)
    result = sim.run(requests, horizon=8 * 3600.0)
    return requests, result
