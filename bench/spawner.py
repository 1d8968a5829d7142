"""Runs the benchmark's CLI requests, one at a time, from a small process.

A child's ru_maxrss starts from its parent's high-water mark, because
the child shares the parent's memory until it execs. Spawned from the
benchmark, which holds parsed models, every child would report the
benchmark's peak. This process never grows, so wait4 on its children
gives each CLI process's own peak.

Protocol: one JSON line per request on stdin, {"argv": [...],
"timeout": seconds}; one JSON line per result on stdout, {"code",
"stdout", "stderr", "start", "wall_s", "maxrss_kb", "calibrations"},
the last being the host-speed task timed just before and just after the
child (see hostspeed.py). EOF on stdin ends the process; a child still
running at its timeout is killed.
Usage: python3 spawner.py STDERR_FILE. The Spawner class is the
benchmark's side of the protocol.
"""

from __future__ import annotations

import json
import os
import selectors
import subprocess
import sys
import time

from hostspeed import calibrate


def run(argv: list[str], timeout: float, err_path: str) -> dict:
    before = calibrate()
    with open(err_path, "w+b") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, stderr=err)
        chunks = []
        with selectors.DefaultSelector() as sel:
            sel.register(proc.stdout, selectors.EVENT_READ)
            fd = proc.stdout.fileno()
            while True:
                left = start + timeout - time.perf_counter()
                if left <= 0:
                    proc.kill()
                    break
                if not sel.select(left):
                    continue
                data = os.read(fd, 1 << 16)
                if not data:
                    break
                chunks.append(data)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        proc.stdout.close()
        err.seek(0)
        stderr = err.read()
    after = calibrate()
    return {
        "code": proc.returncode,
        "stdout": b"".join(chunks).decode("utf-8", "replace"),
        "stderr": stderr.decode("utf-8", "replace"),
        "start": start,
        "wall_s": wall,
        "maxrss_kb": usage.ru_maxrss,
        "calibrations": [before, after],
    }


class Spawner:
    """Client side: starts this file as a process and sends it requests."""

    def __init__(self, err_path: str, env: dict[str, str]) -> None:
        self.proc = subprocess.Popen(
            [sys.executable, __file__, err_path],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            env=env,
            text=True,
        )

    def run(self, argv: list[str], timeout: float) -> dict:
        self.proc.stdin.write(json.dumps({"argv": argv, "timeout": timeout}) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError("spawner process ended")
        return json.loads(line)

    def close(self) -> None:
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()

    def __enter__(self) -> "Spawner":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def main() -> int:
    err_path = sys.argv[1]
    for line in sys.stdin:
        request = json.loads(line)
        result = run(request["argv"], request["timeout"], err_path)
        sys.stdout.write(json.dumps(result) + "\n")
        sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
