"""Unit and integration tests for placement constraints."""

import numpy as np
import pytest

from repro.sim import ClusterSimulator, SimConfig
from repro.sim.constraints import (
    Constraint,
    ConstraintModel,
    generate_attribute_matrix,
)
from repro.synth import GoogleConfig, generate_machines, generate_task_requests

HOUR = 3600.0


class TestConstraint:
    def test_eq(self):
        attrs = np.array([[0.0], [1.0], [2.0]])
        mask = Constraint(0, "eq", 1.0).satisfied_by(attrs)
        np.testing.assert_array_equal(mask, [False, True, False])

    def test_ne(self):
        attrs = np.array([[0.0], [1.0]])
        mask = Constraint(0, "ne", 0.0).satisfied_by(attrs)
        np.testing.assert_array_equal(mask, [False, True])

    def test_ge_le(self):
        attrs = np.array([[0.0], [1.0], [2.0]])
        np.testing.assert_array_equal(
            Constraint(0, "ge", 1.0).satisfied_by(attrs), [False, True, True]
        )
        np.testing.assert_array_equal(
            Constraint(0, "le", 1.0).satisfied_by(attrs), [True, True, False]
        )

    def test_validation(self):
        with pytest.raises(ValueError):
            Constraint(0, "bogus", 1.0)
        with pytest.raises(ValueError):
            Constraint(-1, "eq", 1.0)


class TestGenerateAttributes:
    def test_shape_and_range(self, rng):
        attrs = generate_attribute_matrix(10, rng, 4, 3)
        assert attrs.shape == (10, 4)
        assert attrs.min() >= 0 and attrs.max() <= 2

    def test_validation(self, rng):
        with pytest.raises(ValueError):
            generate_attribute_matrix(0, rng)
        with pytest.raises(ValueError):
            generate_attribute_matrix(5, rng, values_per_attribute=1)


class TestConstraintModel:
    def test_mask_all_true_for_empty(self, rng):
        model = ConstraintModel(generate_attribute_matrix(6, rng))
        assert model.satisfying_mask(()).all()

    def test_mask_intersects(self, rng):
        attrs = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        model = ConstraintModel(attrs)
        mask = model.satisfying_mask(
            (Constraint(0, "eq", 0.0), Constraint(1, "eq", 1.0))
        )
        np.testing.assert_array_equal(mask, [False, True, False])

    def test_sampled_constraints_satisfiable(self, rng):
        model = ConstraintModel(
            generate_attribute_matrix(20, rng), constraint_prob=1.0
        )
        for _ in range(50):
            constraints = model.sample_constraints(rng)
            assert constraints  # prob 1 -> always at least one
            mask = model.satisfying_mask(constraints)
            # eq constraints draw present values, so eq-only tuples are
            # always satisfiable; mixed tuples may be empty but mask math
            # must still work.
            assert mask.dtype == bool

    def test_zero_prob_never_constrains(self, rng):
        model = ConstraintModel(
            generate_attribute_matrix(5, rng), constraint_prob=0.0
        )
        assert model.sample_constraints(rng) == ()

    def test_out_of_range_attribute_rejected(self, rng):
        model = ConstraintModel(generate_attribute_matrix(5, rng, 2))
        with pytest.raises(ValueError, match="attribute"):
            model.satisfying_mask((Constraint(7, "eq", 0.0),))

    def test_validation(self, rng):
        with pytest.raises(ValueError):
            ConstraintModel(np.zeros(5))  # 1-D
        with pytest.raises(ValueError):
            ConstraintModel(np.zeros((3, 2)), constraint_prob=2.0)
        with pytest.raises(ValueError):
            ConstraintModel(np.zeros((3, 2)), max_constraints=0)


class TestConstrainedSimulation:
    def _run(self, constraint_prob):
        rng = np.random.default_rng(9)
        machines = generate_machines(8, rng)
        model = ConstraintModel(
            generate_attribute_matrix(8, rng),
            constraint_prob=constraint_prob,
        )
        requests = generate_task_requests(
            6 * HOUR,
            seed=10,
            config=GoogleConfig(busy_window=None),
            tasks_per_hour=14.0 * 8,
        )
        sim = ClusterSimulator(
            machines, SimConfig(constraints=model), seed=11
        )
        return sim.run(requests, 6 * HOUR)

    def test_runs_and_schedules(self):
        result = self._run(0.5)
        assert result.counts["scheduled"] > 0

    def test_scheduled_machines_satisfy_constraints(self):
        """Every placement must respect the task's machine mask."""
        rng = np.random.default_rng(12)
        machines = generate_machines(4, rng)
        attrs = generate_attribute_matrix(4, rng)
        model = ConstraintModel(attrs, constraint_prob=1.0)
        requests = generate_task_requests(
            2 * HOUR,
            seed=13,
            config=GoogleConfig(busy_window=None),
            tasks_per_hour=40.0,
        )
        from tests.oracles import FleetState, build_tasks, choose_machine

        fleet = FleetState(machines)
        sim_rng = np.random.default_rng(14)
        for task in build_tasks(requests)[:100]:
            task.constraints = model.sample_constraints(sim_rng)
            if task.constraints:
                task.allowed_mask = model.satisfying_mask(task.constraints)
            m = choose_machine(fleet, task, "balance", sim_rng)
            if m >= 0 and task.allowed_mask is not None:
                assert task.allowed_mask[m]

    def test_constraints_raise_pending(self):
        """Heavier constraints shrink candidate sets -> more queueing."""
        free = self._run(0.0)
        constrained = self._run(0.95)
        pending_free = int(np.asarray(free.cluster_series["n_pending"]).sum())
        pending_con = int(
            np.asarray(constrained.cluster_series["n_pending"]).sum()
        )
        assert pending_con >= pending_free

    def test_mismatched_fleet_rejected(self):
        rng = np.random.default_rng(15)
        machines = generate_machines(4, rng)
        model = ConstraintModel(generate_attribute_matrix(9, rng))
        requests = generate_task_requests(
            HOUR,
            seed=16,
            config=GoogleConfig(busy_window=None),
            tasks_per_hour=10.0,
        )
        sim = ClusterSimulator(machines, SimConfig(constraints=model), seed=17)
        with pytest.raises(ValueError, match="machine count"):
            sim.run(requests, HOUR)
