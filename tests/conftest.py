"""Shared test settings."""
from hypothesis import settings

# Property tests replay the same examples on every run, so a failure seen
# once is seen again; they keep no example database and no per-example
# deadline, because a CLI run or a march has no fixed time.
settings.register_profile("lcowind", derandomize=True, database=None, deadline=None)
settings.load_profile("lcowind")
