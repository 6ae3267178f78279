"""Settings for every test run from the repository root.

Tests run on one BLAS thread, as the benchmark does: a product's rounding can
depend on how many threads split it, and the equivalence tests compare
results down to that rounding. The variables are set before anything imports
numpy; a value already in the environment is kept.

A test that runs longer than ``HANG_S`` seconds ends the whole run: a
``faulthandler`` watchdog thread prints every thread's traceback to the
terminal and exits the process with status 1, so a hang fails with the place
it hangs instead of stalling without output. The slowest test takes a few
seconds. The watchdog uses no signal; ``perfbench/speed.py`` owns SIGALRM.
"""

import faulthandler
import os

import pytest

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

HANG_S = 300

_TERMINAL = pytest.StashKey[int]()


def pytest_configure(config):
    # Output capture is suspended while plugins configure, so descriptor 2
    # is still the terminal here; during a test it is a capture file, which
    # the watchdog's exit would discard unread.
    config.stash[_TERMINAL] = os.dup(2)


def pytest_unconfigure(config):
    os.close(config.stash[_TERMINAL])


@pytest.fixture(autouse=True)
def _end_the_run_on_a_hang(request):
    faulthandler.dump_traceback_later(HANG_S, exit=True, file=request.config.stash[_TERMINAL])
    yield
    faulthandler.cancel_dump_traceback_later()
