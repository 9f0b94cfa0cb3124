"""Run tadoc CLI commands in a fresh process and print its peak memory.

Usage: python3 peak.py <src dir> '<JSON list of argv lists>'

Each argv list goes to `tadoc.cli.main` in turn, with stdout and stderr
discarded. The last line printed is the process's peak resident set size in
MB, read from VmHWM: unlike `ru_maxrss`, which survives `exec` and so can
report the parent's peak, the high-water mark belongs to this process
image alone. The exit code is 1 if any command returned non-zero.
"""

from __future__ import annotations

import contextlib
import json
import sys


class _Discard:
    def write(self, text: str) -> int:
        return len(text)

    def flush(self) -> None:
        pass


def main() -> int:
    sys.path.insert(0, sys.argv[1])
    from tadoc.cli import main as tadoc_main

    status = 0
    for argv in json.loads(sys.argv[2]):
        with contextlib.redirect_stdout(_Discard()), contextlib.redirect_stderr(
            _Discard()
        ):
            if tadoc_main(argv) != 0:
                status = 1
    with open("/proc/self/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                print(int(line.split()[1]) / 1024)  # the field is in kB
    return status


if __name__ == "__main__":
    sys.exit(main())
