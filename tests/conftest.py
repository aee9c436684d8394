"""Hypothesis profiles.

tier1, loaded by default, draws the same examples on every run of a
commit: derandomize=True and no example database, at each test's own
max_examples.  explore (pytest --hypothesis-profile=explore) draws at
random, ten times as many examples (helpers.examples), and keeps failing
examples in the database under .hypothesis/; commit each one it finds as
an explicit @example on its test, so that tier1 replays it.
"""

from hypothesis import settings

settings.register_profile("tier1", derandomize=True, database=None)
settings.register_profile("explore", derandomize=False)
settings.load_profile("tier1")
