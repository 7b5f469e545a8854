"""Suite-wide settings.

Hypothesis draws the same examples on every run, derived from each test's
source, and replays no examples saved by earlier runs, so the suite's result
is a function of the tree.
"""

from hypothesis import settings

settings.register_profile("reproducible", derandomize=True, database=None)
settings.load_profile("reproducible")
