"""Machine-speed reference for the timed run.

A shared host's speed can drift by up to 1.45x over tens of seconds: on a
2-vCPU Xeon virtual machine a fixed pure-Python loop ranged from 11 to 36 ms
per execution within 20 s, and whole 15-second runs landed in a slow or a fast
state. The timed run therefore executes ``kernel`` between
batches and reports times scaled to the speed at which the kernel takes
REFERENCE_S. The kernel is frozen here and shares no code with the package,
so every change to the package still shows in full; only the host's drift is
divided out. Raw, unscaled figures are printed in the run details.

The kernel mixes what the package does: plain Python
arithmetic, 2x2 and 4x4 complex numpy products, a 4x4 Hermitian
eigensolve and float formatting.
"""

from __future__ import annotations

import math
import time

import numpy as np

REFERENCE_S = 0.005
_BASE = np.array([[1.0, 0.5j], [-0.5j, 2.0]], dtype=complex)
_EYE4 = np.eye(4, dtype=complex)


def kernel() -> float:
    total = 0.0
    for i in range(120):
        phase = math.cos(0.01 * i) + 1j * math.sin(0.01 * i)
        m = _BASE * phase
        joint = np.kron(m @ m.conj().T, _BASE)
        total += float(np.linalg.eigvalsh(joint + _EYE4)[0])
        total += sum(math.sqrt(j + 1.0) for j in range(30))
        total += len(format(total, ".17g"))
    return total


def speed_factor() -> float:
    """Seconds one kernel execution takes now, over REFERENCE_S (above 1: a slow host)."""
    start = time.perf_counter()
    kernel()
    return (time.perf_counter() - start) / REFERENCE_S
