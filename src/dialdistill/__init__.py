"""dialdistill: future-aware teacher / history-only student dialogue distillation.

A numpy-only library for training a response generator whose teacher
sees both the conversation so far and the turns that follow, then
distilling that teacher into a student restricted to the history alone.
"""

import ctypes
import os

__version__ = "0.1.0"

# glibc's mallopt parameters (malloc.h)
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3
_M_ARENA_MAX = -8
# arrays up to 32 MiB (glibc's 64-bit maximum) come from the heap, the
# heap's free top is returned to the kernel only beyond 1 GiB, and every
# thread allocates from the one heap, so what a worker frees serves the rest
_POLICY = ((_M_MMAP_THRESHOLD, 32 << 20), (_M_TRIM_THRESHOLD, 1 << 30), (_M_ARENA_MAX, 1))


def _keep_freed_memory(libc) -> None:
    """Keep the memory a training step frees for the next step to reuse.

    By default glibc maps every large array afresh and returns a freed
    heap top to the kernel, so each step faults its activations back in.
    Both thresholds are set: any ``mallopt`` turns off glibc's dynamic mmap
    threshold, so the trim threshold alone would map every array over
    128 KiB. One arena keeps a worker thread's freed memory out of an
    arena of its own that no other thread reuses. A libc without
    ``mallopt`` keeps its own policy."""
    mallopt = getattr(libc, "mallopt", None)
    if mallopt is None:
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    for param, value in _POLICY:
        mallopt(param, value)


if os.name == "posix":
    _keep_freed_memory(ctypes.CDLL(None))
