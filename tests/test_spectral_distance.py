"""The folded daily profile contrasts Grid and Cloud submission streams."""

import numpy as np

DAY = 86400.0


class TestDiurnalStrength:
    def test_grid_arrivals_more_diurnal_than_google(self):
        """The paper's key dynamic contrast, via folded daily profiles."""
        from repro.core.fairness import hourly_counts
        from repro.core.spectral import daily_profile_amplitude
        from repro.synth import generate_google_jobs, generate_grid_jobs
        from repro.synth.google_model import GoogleConfig

        horizon = 14 * DAY
        google = generate_google_jobs(
            horizon, seed=3, config=GoogleConfig(busy_window=None)
        )
        grid = generate_grid_jobs("AuverGrid", horizon, seed=4)
        g_counts = hourly_counts(
            np.asarray(google["submit_time"]), horizon
        ).astype(float)
        a_counts = hourly_counts(
            np.asarray(grid["submit_time"]), horizon
        ).astype(float)
        a_google = daily_profile_amplitude(g_counts, 24)
        a_grid = daily_profile_amplitude(a_counts, 24)
        assert a_grid > 3 * a_google
