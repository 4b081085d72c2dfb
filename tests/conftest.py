"""One Hypothesis profile for the suite: no deadline, a derandomized
search and no example database, so every property test is repeatable.
Each test sets only its own ``max_examples``.

Every test must also leave no live child process behind: a run's trial
worker is joined before the run ends, and so is any process a test starts.
"""

import multiprocessing

import pytest
from hypothesis import settings

settings.register_profile("qnbench", deadline=None, derandomize=True, database=None)
settings.load_profile("qnbench")


@pytest.fixture(autouse=True)
def no_child_left_running():
    yield
    left = multiprocessing.active_children()
    for child in left:
        child.kill()
        child.join()
    if left:
        pytest.fail(f"the test left {len(left)} child process(es) running: {left}")
