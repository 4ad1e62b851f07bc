"""Streaming machine-usage accumulation for paper-scale traces.

The event-driven simulator resolves contention exactly but holds every
task object in memory; at the paper's full scale (25M tasks on 12,500
machines over a month) the host-load characterization only needs the
per-machine per-tick usage sums. :class:`UsageGridAccumulator` computes
exactly those with ``np.add.at`` scatter-adds over a machine-major
``(num_machines, num_ticks)`` grid, consuming the task-request
:class:`~repro.core.table.Table` chunks of
:func:`repro.synth.google_model.iter_task_requests` one at a time —
peak memory is the grid plus one chunk, independent of task count.

Layering note: ``hostload`` sits below ``sim``, so the usage schema is
declared here as :data:`USAGE_GRID_SCHEMA`; a test cross-checks it
against ``repro.sim.monitor.MACHINE_USAGE_SCHEMA`` column for column.
"""

from __future__ import annotations

import numpy as np

from ..core.table import Table

__all__ = ["USAGE_GRID_SCHEMA", "UsageGridAccumulator"]

#: Machine-level usage samples, one row per machine per tick — the same
#: shape the simulator's monitor emits (see the layering note above).
USAGE_GRID_SCHEMA: dict[str, np.dtype] = {
    "time": np.dtype(np.float64),
    "machine_id": np.dtype(np.int64),
    "cpu_usage": np.dtype(np.float64),
    "mem_usage": np.dtype(np.float64),
    "mem_assigned": np.dtype(np.float64),
    "page_cache": np.dtype(np.float64),
    "cpu_mid_high": np.dtype(np.float64),
    "cpu_high": np.dtype(np.float64),
    "mem_mid_high": np.dtype(np.float64),
    "mem_high": np.dtype(np.float64),
    "n_running": np.dtype(np.int64),
}

#: Float usage attributes a grid can track, in schema order.
_FLOAT_ATTRIBUTES = (
    "cpu_usage",
    "mem_usage",
    "mem_assigned",
    "page_cache",
    "cpu_mid_high",
    "cpu_high",
    "mem_mid_high",
    "mem_high",
)

#: Capacity column of the machines table that normalizes each attribute.
_CAPACITY_OF = {
    "cpu_usage": "cpu_capacity",
    "cpu_mid_high": "cpu_capacity",
    "cpu_high": "cpu_capacity",
    "mem_usage": "mem_capacity",
    "mem_assigned": "mem_capacity",
    "mem_mid_high": "mem_capacity",
    "mem_high": "mem_capacity",
    "page_cache": "page_cache_capacity",
}


class UsageGridAccumulator:
    """Scatter-add task demand onto a (machine, tick) usage grid.

    Ticks sit at ``k * period`` for ``k = 0 .. floor(horizon/period)``
    (the simulator monitor's tick set); a task occupies every tick with
    ``start <= tick_time < end``. At full attribute coverage a paper-
    scale grid is large, so ``attributes`` can restrict tracking to the
    columns an analysis needs (e.g. ``("cpu_usage", "mem_usage")``).
    """

    def __init__(
        self,
        machines: Table,
        horizon: float,
        period: float = 300.0,
        attributes: tuple[str, ...] | None = None,
    ) -> None:
        if horizon <= 0:
            raise ValueError("horizon must be positive")
        if period <= 0:
            raise ValueError("period must be positive")
        self.machines = machines
        self.horizon = float(horizon)
        self.period = float(period)
        self.attributes = (
            _FLOAT_ATTRIBUTES if attributes is None else tuple(attributes)
        )
        unknown = set(self.attributes) - set(_FLOAT_ATTRIBUTES)
        if unknown:
            raise ValueError(f"unknown attributes: {sorted(unknown)}")
        self.machine_ids = np.asarray(machines["machine_id"], dtype=np.int64)
        self.num_machines = len(self.machine_ids)
        if self.num_machines == 0:
            raise ValueError("machines table is empty")
        self.num_ticks = int(np.floor(self.horizon / self.period)) + 1
        shape = (self.num_machines, self.num_ticks)
        self._grids = {name: np.zeros(shape) for name in self.attributes}
        self._n_running = np.zeros(shape, dtype=np.int64)
        self._tick_times = np.arange(self.num_ticks) * self.period

    # -- accumulation --------------------------------------------------------

    def add_tasks(
        self,
        slots: np.ndarray,
        start: np.ndarray,
        end: np.ndarray,
        *,
        cpu: np.ndarray | None = None,
        mem: np.ndarray | None = None,
        mem_assigned: np.ndarray | None = None,
        page_cache: np.ndarray | None = None,
        band: np.ndarray | None = None,
    ) -> None:
        """Add one chunk of placed tasks to the grid.

        ``slots`` are row indices into the machines table (not machine
        ids). Only the demand arrays required by the tracked attributes
        must be provided; ``band`` (priority band codes 0/1/2) is
        required only when a ``*_mid_high``/``*_high`` split is tracked.
        """
        slots = np.asarray(slots, dtype=np.int64)
        start = np.asarray(start, dtype=np.float64)
        end = np.asarray(end, dtype=np.float64)
        if not (slots.shape == start.shape == end.shape) or slots.ndim != 1:
            raise ValueError("slots/start/end must be 1-D with equal shape")
        if slots.size and (slots.min() < 0 or slots.max() >= self.num_machines):
            raise ValueError("slots out of range")
        demand = {
            "cpu_usage": cpu,
            "mem_usage": mem,
            "mem_assigned": mem_assigned,
            "page_cache": page_cache,
            "cpu_mid_high": cpu,
            "cpu_high": cpu,
            "mem_mid_high": mem,
            "mem_high": mem,
        }
        needs_band = any(a.endswith(("_mid_high", "_high")) for a in self.attributes)
        for name in self.attributes:
            if demand[name] is None:
                raise ValueError(f"attribute {name!r} is tracked but its demand array is missing")
        if needs_band and band is None:
            raise ValueError("band is required for priority-split attributes")

        k0 = np.maximum(np.ceil(start / self.period).astype(np.int64), 0)
        k1 = np.minimum(
            np.ceil(end / self.period).astype(np.int64), self.num_ticks
        )
        counts = np.maximum(k1 - k0, 0)
        total = int(counts.sum())
        if total == 0:
            return
        task_of = np.repeat(np.arange(counts.size), counts)
        offsets = np.arange(total) - np.repeat(np.cumsum(counts) - counts, counts)
        # Machine-major flat index: all of one machine's ticks are
        # contiguous, so per-machine series are views (see pool()).
        flat = slots[task_of] * self.num_ticks + k0[task_of] + offsets

        band_x = None if band is None else np.asarray(band)[task_of]
        for name in self.attributes:
            values = np.asarray(demand[name], dtype=np.float64)[task_of]
            if name.endswith("_mid_high"):
                mask = band_x >= 1
                np.add.at(self._grids[name].ravel(), flat[mask], values[mask])
            elif name.endswith("_high"):
                mask = band_x == 2
                np.add.at(self._grids[name].ravel(), flat[mask], values[mask])
            else:
                np.add.at(self._grids[name].ravel(), flat, values)
        np.add.at(self._n_running.ravel(), flat, 1)

    def merge(self, other: "UsageGridAccumulator") -> "UsageGridAccumulator":
        """Add another accumulator's grids elementwise (same config).

        Lets disjoint task-chunk ranges accumulate on separate grids
        (e.g. one per map-reduce worker) and combine. The ``n_running``
        count grid merges exactly (integer addition); the float usage
        grids merge deterministically for a *fixed* partition of tasks
        into grids, but partial float sums are not bit-identical across
        different partitions — callers needing byte-stable output must
        keep the (chunking, jobs) layout fixed, as the experiment
        backends do by using only exact accumulators.
        """
        if (
            other.num_machines != self.num_machines
            or other.num_ticks != self.num_ticks
            or other.period != self.period
            or other.attributes != self.attributes
        ):
            raise ValueError("cannot merge accumulators with different config")
        for name in self.attributes:
            self._grids[name] += other._grids[name]
        self._n_running += other._n_running
        return self

    # -- outputs -------------------------------------------------------------

    def grid(self, attribute: str) -> np.ndarray:
        """The raw ``(num_machines, num_ticks)`` sum for one attribute."""
        if attribute == "n_running":
            return self._n_running
        if attribute not in self._grids:
            raise KeyError(f"attribute {attribute!r} not tracked")
        return self._grids[attribute]

    def pool(self, attribute: str) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(times, values, lengths)`` for the pooled run-length kernel.

        Values are relative load levels (usage over the machine's
        capacity, clipped to [0, 1]), machine-major — exactly the input
        :func:`repro.core.kernels.pooled_level_durations` wants, without
        building per-machine series objects or a row-expanded table.
        """
        grid = self.grid(attribute)
        cap = np.asarray(
            self.machines[_CAPACITY_OF[attribute]], dtype=np.float64
        )
        values = np.clip(grid / cap[:, None], 0.0, 1.0).reshape(-1)
        times = np.tile(self._tick_times, self.num_machines)
        lengths = np.full(self.num_machines, self.num_ticks, dtype=np.int64)
        return times, values, lengths

    def table(self) -> Table:
        """Row-expanded usage table (one row per machine per tick).

        Column set and dtypes follow :data:`USAGE_GRID_SCHEMA`, with
        untracked attributes omitted (and the schema reduced to match).
        Tick-major row order — identical to the simulator monitor's
        table layout — so existing per-machine extractors apply.
        """
        columns: dict[str, np.ndarray] = {
            "time": np.repeat(self._tick_times, self.num_machines),
            "machine_id": np.tile(self.machine_ids, self.num_ticks),
        }
        schema = {
            "time": USAGE_GRID_SCHEMA["time"],
            "machine_id": USAGE_GRID_SCHEMA["machine_id"],
        }
        for name in self.attributes:
            columns[name] = self._grids[name].T.reshape(-1)
            schema[name] = USAGE_GRID_SCHEMA[name]
        columns["n_running"] = self._n_running.T.reshape(-1)
        schema["n_running"] = USAGE_GRID_SCHEMA["n_running"]
        return Table(columns, schema=schema)
