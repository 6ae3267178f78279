"""Settings for every test run from the repository root.

Tests run on one BLAS thread, as the benchmark does: a product's rounding can
depend on how many threads split it, and the equivalence tests compare
results down to that rounding. The variables are set before anything imports
numpy; a value already in the environment is kept.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
