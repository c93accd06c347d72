"""Start commands from a small interpreter and report each one's exit code and peak RSS.

A process started by fork/exec keeps the RSS high-water mark of the process
it was forked from, so CLI children started directly by the benchmark
worker (which holds numpy and the reference outputs) would all report at
least the worker's size.  This stdlib-only loop stays small: it reads one
JSON request per line on stdin, ``{"argv": [...], "stdout": PATH,
"stderr": PATH}``, runs the command with this process's environment, and
answers ``{"code": EXIT_CODE, "maxrss_kb": KB}`` on stdout.
"""

import json
import os
import sys


def main():
    for line in sys.stdin:
        request = json.loads(line)
        pid = os.fork()
        if pid == 0:
            try:
                for fd, path in ((1, request["stdout"]), (2, request["stderr"])):
                    os.dup2(os.open(path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644), fd)
                os.execv(request["argv"][0], request["argv"])
            finally:
                os._exit(127)
        _, status, usage = os.wait4(pid, 0)
        print(json.dumps({"code": os.waitstatus_to_exitcode(status),
                          "maxrss_kb": usage.ru_maxrss}), flush=True)


if __name__ == "__main__":
    main()
