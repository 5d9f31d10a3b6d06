"""Long-lived helper that starts the benchmark's child processes and times them.

A child's ``ru_maxrss`` starts from the peak resident set of the process
that forked it. The benchmark holds numpy and the generated inputs, so
its children are started from this small process instead; otherwise the
benchmark's own memory would show up in every child's peak_rss_mb.

One JSON request per line on stdin: ``{"argv", "out", "err"}`` (the
child's command and the files for its standard output and error). One
JSON reply per line on stdout: ``{"code", "wall", "maxrss_kb"}``, with
the wall time from spawn to exit. Children inherit this process's
environment and working directory. It exits at the end of its input.
"""

import json
import os
import subprocess
import sys
import threading
import time

TIMEOUT_S = 170.0


def main() -> None:
    for line in sys.stdin:
        request = json.loads(line)
        with open(request["out"], "wb") as out, open(request["err"], "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(request["argv"], stdout=out, stderr=err)
            killer = threading.Timer(TIMEOUT_S, proc.kill)
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                killer.cancel()
            wall = time.perf_counter() - start
        # Reaped by wait4 above; tell Popen so that it never waits again.
        proc.returncode = os.waitstatus_to_exitcode(status)
        reply = {"code": proc.returncode, "wall": wall, "maxrss_kb": usage.ru_maxrss}
        sys.stdout.write(json.dumps(reply) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
