"""Child processes of one benchmark run, under one deadline.

Each child runs in its own process group, and stop() -- which run.py calls on
every exit path -- ends all of them and waits for each.
"""

import json
import os
import select
import signal
import subprocess
import time
from pathlib import Path


class RunFailed(Exception):
    pass


class Processes:
    """Children of this run, each in its own process group."""

    def __init__(self, deadline):
        self.deadline = deadline
        self.procs = []

    def remaining(self):
        left = self.deadline - time.monotonic()
        if left <= 0:
            raise RunFailed("run deadline passed")
        return left

    def start(self, argv, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL):
        proc = subprocess.Popen(argv, stdout=stdout, stderr=stderr,
                                start_new_session=True)
        self.procs.append(proc)
        return proc

    def run(self, argv, log):
        with open(log, "ab") as err:
            proc = self.start(argv, stdout=err, stderr=err)
            try:
                code = wait(proc, self.remaining())
            except subprocess.TimeoutExpired:
                raise RunFailed(f"{Path(argv[0]).name} ran past the deadline")
        if code != 0:
            raise RunFailed(f"{Path(argv[0]).name} exited with {code} "
                            f"(see {log})")

    def stop(self, procs=None, grace=5.0):
        """SIGTERM, then SIGKILL after `grace` seconds; always waits."""
        procs = self.procs if procs is None else procs
        for p in procs:
            if p.poll() is None:
                _signal_group(p, signal.SIGTERM)
        end = time.monotonic() + grace
        for p in procs:
            try:
                p.wait(timeout=max(0.0, end - time.monotonic()))
            except subprocess.TimeoutExpired:
                _signal_group(p, signal.SIGKILL)
                p.wait()
        self.procs = [p for p in self.procs if p not in procs]


def wait(proc, timeout):
    """Popen.wait(timeout) polls with sleeps of up to 50 ms, which would
    show as steps in the set-up times; a pidfd wakes as soon as the child
    exits."""
    fd = os.pidfd_open(proc.pid)
    try:
        if not select.select([fd], [], [], timeout)[0]:
            raise subprocess.TimeoutExpired(proc.args, timeout)
    finally:
        os.close(fd)
    return proc.wait()


def _signal_group(proc, signo):
    try:
        os.killpg(proc.pid, signo)
    except ProcessLookupError:
        pass


def read_json(path):
    with open(path) as f:
        return json.load(f)
