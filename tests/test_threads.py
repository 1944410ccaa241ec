"""The hot paths of a scanning round run in the calling thread.

A numpy matrix-vector product past OpenBLAS's threading size goes to a
worker thread, and waits for a second core whenever another process holds
it.  The test reads the CPU time of the process's other threads from
/proc/self/task/*/stat around one warm round of the benchmark's
`verdicts-scan` requests.
"""

import os
import sys
import threading

import pytest

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                                "perfbench"))

import workloads  # noqa: E402

TASKS = "/proc/self/task"


def other_thread_ticks():
    """Clock ticks of user and system time of every thread of this process but the caller."""
    total = 0
    for tid in os.listdir(TASKS):
        if int(tid) == threading.get_native_id():
            continue
        try:
            with open(os.path.join(TASKS, tid, "stat")) as fh:
                fields = fh.read().rsplit(")", 1)[1].split()
        except FileNotFoundError:  # the thread has exited
            continue
        total += int(fields[11]) + int(fields[12])  # utime and stime, fields 14 and 15
    return total


@pytest.mark.skipif(not os.path.isdir(TASKS), reason="needs /proc/self/task")
def test_a_warm_verdicts_scan_round_leaves_other_threads_idle(tmp_path):
    scan = workloads.VerdictsScan()
    scan.build(1, str(tmp_path))
    requests = scan.requests()
    for req in requests:  # imports, caches and lazy set-up
        req.call()
    before = other_thread_ticks()
    for req in requests:
        assert req.check(req.call()) == []
    assert other_thread_ticks() - before <= 1
