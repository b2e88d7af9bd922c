"""Calibration kernels that put timings on the host's reference speed.

The host this benchmark was built on runs the same code up to twice as
slowly for stretches of seconds to minutes, as other tenants load it;
CPU time slows with wall time, so neither removes the drift.  A fixed
kernel timed right after each batch of operations slows with it: every
timed operation is scaled by REF / (kernel time), which cancels the
drift (measured: the run-to-run spread of a 10-second median fell from
about 25% to about 3%).  Both the raw and the scaled timings are
recorded.

Two kernels match the two kinds of work measured here: in-process
Python and NumPy arithmetic for `sweep` and `surface`, and a bare
interpreter start that imports NumPy for the subprocess timings (`cli`
and `setup_s`), whose cost is mostly the same start and import.
Neither touches orthogame, so a change to the package does not move
them; the benchmark's own files are not edited by a change that claims a
gain, so the kernels stay fixed between the commits compared.
"""

from __future__ import annotations

import math
import subprocess
import sys
import time

import numpy as np

# kernel times on the reference host (2-core Intel Xeon, Python 3.11.7,
# NumPy 2.4.6) in its fast state; scaled timings are in its seconds
INPROCESS_REF_S = 0.0065
PROCESS_REF_S = 0.110

_X = np.linspace(0.0, 3.0, 250_000)


def inprocess_kernel() -> float:
    """Seconds taken by a fixed mix of scalar Python math and NumPy trigonometry."""
    t0 = time.perf_counter()
    s = 0.0
    for i in range(4000):
        s += math.sin(i * 0.001) ** 2
    s += float(np.sum(np.cos(_X) ** 2 * np.sin(_X + 0.3) ** 2))
    return time.perf_counter() - t0


def process_kernel() -> float:
    """Seconds taken to start an interpreter, import NumPy and exit."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import numpy"], check=True, timeout=60)
    return time.perf_counter() - t0


def scale_inprocess() -> float:
    return INPROCESS_REF_S / inprocess_kernel()


def scale_process() -> float:
    return PROCESS_REF_S / process_kernel()
