"""A fixed calibration kernel that measures how fast the machine runs right now.

The CPU speed a process gets on a shared virtual machine drifts by tens of
percent within minutes: back-to-back runs of the same op differed by up to
1.8x.  Wall time and CPU time drift together, so neither can be trusted
across runs.  The benchmark therefore times this kernel right before and
right after every op and scales the op's time to a reference speed:

    ref_ms = op_ms * REFERENCE_MS / kernel_ms

The kernel does the same kind of work as the register parser (a regex
scan, tuples, small dicts, dictionary counting) but uses the standard
library only.  It never changes, so a change to evrforge moves the op time
and not the kernel time.
"""

from __future__ import annotations

import re
import time

# Kernel time, in ms, at the reference speed: the kernel's typical
# uncontended time on the machine where the benchmark was defined (KVM
# guest, Intel Xeon at 2.1 GHz, CPython 3.11.7).  Only ratios depend on it.
REFERENCE_MS = 2.5

_TEXT = " ".join(f"word{i % 97} = {i * 7 % 1000}; call(x{i % 13}, 'str{i % 31}')"
                 for i in range(400))
_TOKEN = re.compile(r"\s*(?:(\d+)|(\w+)|('[^']*')|(.))")


def speed_sample_ms() -> float:
    """The faster of two back-to-back kernel passes, in ms; the first pass
    also pays for caches the preceding op left cold."""
    return min(_kernel_ms(), _kernel_ms())


def _kernel_ms() -> float:
    t0 = time.perf_counter()
    tokens = []
    names: dict[str, int] = {}
    for match in _TOKEN.finditer(_TEXT):
        number, name, string, other = match.groups()
        tokens.append((number, name, string, other))
        if name:
            names[name] = names.get(name, 0) + 1
    records = [{"name": t[1], "value": t[0]} for t in tokens]
    if sum(len(r) for r in records) != 2 * len(tokens):
        raise RuntimeError("calibration kernel miscounted")
    return (time.perf_counter() - t0) * 1000.0
