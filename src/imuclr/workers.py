"""The process-wide pool of forked worker processes.

Two callers hand it work through run(fn, calls): load_pretrain_samples,
one call per skeleton file without a .simcache entry, and evaluate, one
call per contiguous chunk of windows once its calls in this process have
been asked for inference.POOL_MIN_WINDOWS windows in all. Results come
back in call order, so the callers' outputs are byte-identical to an
in-process run, and the first failing call raises its error after the
results before it. Two or more calls all go, before run returns, to a
ProcessPoolExecutor with the fork start method and one worker per usable
CPU (os.sched_getaffinity), started by the first such run and shut down
at interpreter exit, so the calls after a failing one still run there:
nothing is cancelled. Its workers keep the module code they were forked
with, so a call carries everything that may have changed since (a
model's live parameters, the windows). The calls run in-process, each
when its result is asked for, so those after a failing one never start,
and no process starts, when there are fewer than two, one usable CPU, no
fork start method, or CPython 3.12 or later, which deprecates forking a
process that has threads (BLAS's among them). A pool found broken, as
when a worker is killed, is dropped and the call runs in-process; a run
that finds it so starts a new pool.

Each worker pins its BLAS to one thread when it starts: it calls
openblas_set_num_threads(1) of every OpenBLAS the process has loaded,
found through ctypes among the libraries /proc/self/maps lists, under the
symbol prefix and suffix of numpy's wheels (scipy_, 64_) or none. So N
workers run N BLAS threads on N CPUs, not N times the parent's count.
Where no such library is loaded (another BLAS, or no /proc), the workers
keep the parent's setting: evaluate then scores in-process, while
simulation still uses the pool. README's worker-pool paragraph gives the
measurements.
"""

from __future__ import annotations

import atexit
import ctypes
import functools
import os
import sys

_pool = None  # the ProcessPoolExecutor, or None until a pooled run starts one (see run)
_OPENBLAS_SYMBOLS = [prefix + "openblas_{}" + suffix for prefix in ("", "scipy_") for suffix in ("", "64_")]


def usable_cpus():
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


@functools.cache
def openblas(name):
    """[openblas_<name> of each OpenBLAS this process has loaded], as ctypes functions; [] when none is loaded."""
    try:
        with open("/proc/self/maps", encoding="utf-8", errors="surrogateescape") as fh:
            paths = {line.split(None, 5)[5].rstrip("\n") for line in fh if "openblas" in line.rpartition("/")[2]}
    except OSError:  # no /proc: not Linux
        return []
    found = []
    for path in sorted(paths):
        try:
            lib = ctypes.CDLL(path)  # the library already loaded there: dlopen only counts a reference
        except OSError:
            continue
        for symbol in _OPENBLAS_SYMBOLS:
            function = getattr(lib, symbol.format(name), None)
            if function is not None:
                found.append(function)
                break
    return found


def blas_pinnable():
    """Whether the workers can pin the BLAS this process has loaded to one thread (see openblas)."""
    return bool(openblas("set_num_threads"))


def drop_pool():
    """Shut the pool down, if there is one, discarding its pending calls; the next pooled run starts another."""
    global _pool
    pool, _pool = _pool, None
    if pool is not None:
        atexit.unregister(drop_pool)
        pool.shutdown(cancel_futures=True)


def run(fn, calls):
    """An iterator of fn(*args) for args in calls, pooled or not (see the module docstring); fn must be picklable."""
    futures = _submitted(fn, calls)
    if futures is None:
        return (fn(*args) for args in calls)
    return _results(futures, fn, calls)


def _submitted(fn, calls):
    """[future of fn(*args) for args in calls] in the pool, started if need be; None to run them in-process."""
    global _pool
    if len(calls) < 2 or usable_cpus() < 2 or sys.version_info >= (3, 12):
        return None
    import multiprocessing  # here, not at the top: a run that never pools never pays for these imports
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool

    for _ in range(2):  # a pool a worker's death broke since its last run is replaced, once
        if _pool is None:
            if "fork" not in multiprocessing.get_all_start_methods():
                return None
            _pool = ProcessPoolExecutor(usable_cpus(), multiprocessing.get_context("fork"), _start_worker)
            atexit.register(drop_pool)
        try:
            return [_pool.submit(fn, *args) for args in calls]
        except BrokenProcessPool:
            drop_pool()
    return None


def _results(futures, fn, calls):
    """Each future's result in turn; fn(*args)'s in-process for one whose pool broke, which drops the pool."""
    from concurrent.futures.process import BrokenProcessPool

    for future, args in zip(futures, calls):
        try:
            result = future.result()
        except BrokenProcessPool:
            drop_pool()
            result = fn(*args)
        yield result


def _start_worker():
    """Pool worker initializer: die with the parent, and pin each loaded OpenBLAS to one thread."""
    _die_with_parent()
    for set_num_threads in openblas("set_num_threads"):
        set_num_threads.argtypes, set_num_threads.restype = [ctypes.c_int], None
        set_num_threads(1)


def _die_with_parent():
    """On Linux, ask the kernel to kill this worker when the thread that forked it exits.

    So the worker dies with its process, even one killed by a signal, which
    would otherwise leave it blocked forever on its empty task queue. A pool
    whose workers died so is found broken and replaced.
    """
    import signal

    try:
        ctypes.CDLL(None).prctl(1, signal.SIGKILL)  # 1 is PR_SET_PDEATHSIG
    except (AttributeError, OSError):  # no prctl: not Linux
        pass
