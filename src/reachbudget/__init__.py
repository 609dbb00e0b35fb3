"""Minimum-cost reach-avoid control with a learned cost budget.

The package trains a budget-conditioned policy whose value function
answers "can this state reach the goal safely within budget z", then
bisects that value in z to recover the cheapest feasible budget.
"""

import ctypes
import os
import sys

# The environment variables that set the BLAS thread count. BLAS reads
# them once, when numpy loads, so the pin below only applies before
# that. One thread is the faster setting at these network sizes, and it
# lets training run its policy and value steps on two threads without
# oversubscribing the cores (rcppo.TWO_THREAD_UPDATES).
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

if "numpy" not in sys.modules:
    for _var in BLAS_THREAD_VARS:
        os.environ.setdefault(_var, "1")

# glibc malloc settings: (mallopt parameter, the environment variable
# that also sets it, value). Every minibatch step of a 256-wide net
# allocates and frees a few MB of temporaries. By default glibc hands
# freed memory at the top of the heap back to the system, keeping a
# 128 KB pad, and the next step faults the same pages in again: about
# 139k minor page faults in one phase-1 iteration of 2870 env steps,
# against about 100 with these settings. A 16 MB top pad keeps them.
# Setting any parameter also freezes glibc's adaptive mmap threshold at
# its 128 KB start, after which every large array that does not fit the
# heap's free space is mapped afresh; so the threshold is set to 32 MB,
# the most the adaptive rule grows it to.
_MALLOC_SETTINGS = (
    (-2, "MALLOC_TOP_PAD_", 16 << 20),  # M_TOP_PAD
    (-3, "MALLOC_MMAP_THRESHOLD_", 32 << 20),  # M_MMAP_THRESHOLD
)


def _tune_malloc() -> None:
    """Apply the _MALLOC_SETTINGS the environment leaves unset; a no-op
    where the C library has no mallopt."""
    mallopt = getattr(ctypes.CDLL(None), "mallopt", None)
    if mallopt is None:
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    for param, env_var, value in _MALLOC_SETTINGS:
        if env_var not in os.environ:
            mallopt(param, value)


if sys.platform.startswith("linux"):
    _tune_malloc()

__version__ = "0.1.0"
