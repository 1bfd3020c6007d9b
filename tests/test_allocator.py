"""The allocator policy that ``import dialdistill`` sets: memory a step frees
stays in the process for the next step, instead of going back to the
kernel and being faulted in again, and memory one thread frees serves
every other."""

import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import pytest

import dialdistill

# four rounds, each allocating and touching twenty 8 MiB float32 arrays (160
# MB, under the trim threshold; each array under the mmap threshold) and then
# freeing them all; prints the minor page faults of each round
_ROUNDS = """
import json, resource
import dialdistill
import numpy as np
faults = []
for _ in range(4):
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    arrays = [np.ones(2 << 20, dtype=np.float32) for _ in range(20)]
    del arrays
    faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
print(json.dumps(faults))
"""

# a worker thread allocates, touches and frees twenty 8 MiB arrays, then the
# main thread does the same; prints the minor page faults of each
_WORKER_THEN_MAIN = """
import json, resource, threading
import dialdistill
import numpy as np

def one_round():
    arrays = [np.ones(2 << 20, dtype=np.float32) for _ in range(20)]
    del arrays

def faults(run):
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    run()
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before

worker = threading.Thread(target=one_round)
print(json.dumps([faults(lambda: (worker.start(), worker.join())), faults(one_round)]))
"""


@pytest.mark.skipif(not sys.platform.startswith("linux") or platform.libc_ver()[0] != "glibc",
                    reason="the policy is set through glibc's mallopt")
def test_freed_arrays_are_reused_without_faulting():
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    run = subprocess.run([sys.executable, "-c", _ROUNDS], env=env,
                         capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    faults = json.loads(run.stdout)
    # the first round faults its pages in (about 10k with glibc's defaults
    # and in every later round as well); the later rounds reuse them
    assert faults[0] > 1000, faults
    assert max(faults[1:]) < faults[0] / 50, faults


@pytest.mark.skipif(not sys.platform.startswith("linux") or platform.libc_ver()[0] != "glibc",
                    reason="the policy is set through glibc's mallopt")
def test_arrays_a_worker_freed_are_reused_by_the_main_thread():
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    run = subprocess.run([sys.executable, "-c", _WORKER_THEN_MAIN], env=env,
                         capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    worker, main = json.loads(run.stdout)
    # with an arena per thread, the main thread faults its arrays in afresh,
    # as many faults as the worker took, while the worker's stay mapped
    assert worker > 1000, (worker, main)
    assert main < worker / 50, (worker, main)


def test_both_thresholds_are_set():
    calls = []

    class Libc:
        @staticmethod
        def mallopt(param, value):
            calls.append((param, value))
            return 1

    dialdistill._keep_freed_memory(Libc())
    # M_ARENA_MAX (-8) at 1, M_MMAP_THRESHOLD (-3) at 32 MiB and M_TRIM_THRESHOLD (-1) at 1 GiB
    assert sorted(calls) == [(-8, 1), (-3, 32 << 20), (-1, 1 << 30)]


def test_a_libc_without_mallopt_is_left_alone():
    class Libc:
        pass

    assert dialdistill._keep_freed_memory(Libc()) is None
