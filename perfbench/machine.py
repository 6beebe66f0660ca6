"""What the benchmark runs on, and the CPU time the hypervisor takes from it.

On a shared virtual machine the hypervisor now and then runs another guest
on the CPU the benchmark is using.  Linux counts that time as steal time,
per CPU, in /proc/stat.  The benchmark pins itself and its children to one
CPU and subtracts that CPU's steal time from every timed interval, so a
timing reads what it would on a dedicated machine.  Where /proc/stat has
no steal column, nothing is subtracted.
"""

from __future__ import annotations

import os
import platform
from pathlib import Path

TICKS_PER_S = os.sysconf("SC_CLK_TCK")


def pin_to_one_cpu():
    "Restrict this process, and the children it starts later, to one CPU if allowed."
    try:
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    except OSError:
        pass  # unpinned: no steal time is subtracted


def pinned_cpu() -> int | None:
    allowed = os.sched_getaffinity(0)
    return next(iter(allowed)) if len(allowed) == 1 else None


def stolen_s(cpu: int | None) -> float:
    "Seconds the hypervisor has taken from the CPU since boot (0 when unknown)."
    if cpu is None:
        return 0.0
    try:
        with open("/proc/stat") as fh:
            for line in fh:
                fields = line.split()
                if fields[0] == f"cpu{cpu}" and len(fields) > 8:
                    return int(fields[8]) / TICKS_PER_S
    except OSError:
        pass
    return 0.0


def fs_type(path: Path) -> str:
    "Type of the filesystem holding path, from /proc/mounts."
    best, kind = "", "unknown"
    target = str(path.resolve())
    try:
        with open("/proc/mounts") as fh:
            for line in fh:
                _, mount, fstype = line.split()[:3]
                inside = target == mount or target.startswith(mount.rstrip("/") + "/")
                if inside and len(mount) > len(best):
                    best, kind = mount, fstype
    except OSError:
        pass
    return kind


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"
