"""Bench: regenerate Table III (unchanged memory usage-level durations)."""

from repro.experiments import tab23_level_durations
from repro.experiments.datasets import fleet_series
from repro.experiments.tab23_level_durations import matched_level_comparison

from .conftest import SCALE, SEED


def test_bench_tab3(benchmark, paper_simulation, save_result):
    result = benchmark(tab23_level_durations.run_mem, scale=SCALE, seed=SEED)
    save_result(result)
    print(result.render())

    m = result.metrics
    # Paper: memory levels persist longer than CPU levels and are more
    # skewed (18/82-26/74).
    assert m["mem_weighted_avg_duration_min"] > 0
    assert all(side < 50 for side in m["mem_joint_small_sides"])
    assert matched_level_comparison(fleet_series(SCALE, SEED))
