"""Spawns the commands the benchmark times, one at a time, and reports
each one's exit code, wall time and peak resident set size.

It is a separate, small process on purpose.  Linux carries the peak RSS
of the process that forks a child into the child's ``ru_maxrss``, so
spawning from the benchmark itself (which holds sympy and trace data)
would inflate every reading.  This process imports only the standard
modules below and so stays smaller than any command it starts.

Protocol: one JSON object per line on stdin,
``{"argv": [...], "stdout": path, "stderr": path, "env": {...}, "timeout": s}``,
answered by one line ``{"rc": int, "wall_s": float, "maxrss_kb": int}``.
A command still running after ``timeout`` seconds, or when this process
gets SIGTERM, is killed.  The process ends when stdin closes.
"""

import json
import os
import signal
import subprocess
import sys
import threading
import time


def main():
    running = []
    signal.signal(signal.SIGTERM, lambda *_: [p.kill() for p in running])
    for line in sys.stdin:
        job = json.loads(line)
        env = dict(os.environ, **job["env"])
        with open(job["stdout"], "wb") as out, open(job["stderr"], "wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(job["argv"], stdout=out, stderr=err, env=env)
            running.append(proc)
            killer = threading.Timer(job["timeout"], proc.kill)
            killer.start()
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - t0
            killer.cancel()
            running.clear()
        proc.returncode = os.waitstatus_to_exitcode(status)
        reply = {"rc": proc.returncode, "wall_s": wall, "maxrss_kb": usage.ru_maxrss}
        sys.stdout.write(json.dumps(reply) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
