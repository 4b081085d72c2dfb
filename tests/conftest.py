"""One Hypothesis profile for the suite: no deadline, a derandomized
search and no example database, so every property test is repeatable.
Each test sets only its own ``max_examples``."""

from hypothesis import settings

settings.register_profile("qnbench", deadline=None, derandomize=True, database=None)
settings.load_profile("qnbench")
