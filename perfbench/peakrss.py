"""Run a module as ``__main__``, then record this process's peak RSS.

Usage: python3 perfbench/peakrss.py OUT -m MODULE [ARGS...]

Behaves like ``python3 -m MODULE ARGS...`` (same exit code) and writes the
process's resident-set high-water mark in MB to the file OUT.  The mark is
VmHWM from /proc/self/status, which belongs to the address space made at
exec; getrusage and wait4 instead report the larger of it and the parent's
RSS at fork time.
"""

import runpy
import sys


def peak_rss_mb() -> float:
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc/self/status")


def main() -> int:
    out, flag, module, *args = sys.argv[1:]
    if flag != "-m":
        raise SystemExit(__doc__)
    sys.argv = [module, *args]
    sys.path[0] = ""
    code = 0
    try:
        runpy.run_module(module, run_name="__main__", alter_sys=True)
    except SystemExit as exc:
        code = exc.code
    finally:
        with open(out, "w", encoding="ascii") as fh:
            fh.write(f"{peak_rss_mb()!r}\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
