"""How fast the core runs right now, measured with fixed probes.

The benchmark shares a host whose cores change speed by up to 2x within
seconds, as other work comes and goes.  Timings are therefore scaled to
a reference speed, by probes timed right before and after them, before
runs are compared.  A probe must do the same kind of work as what it
scales, or it does not follow the changes:

* ``probe_s`` scales job latencies.  It runs between every two jobs of
  a pass and does what the program's jobs do: exact ``Fraction``
  elimination of a small fixed matrix, with lists of rows.
* ``import_probe_s`` scales import times.  It imports a fixed set of
  standard modules in a fresh interpreter, as the program's import does
  with its own modules; the probe's time does not follow it.

Neither probe touches the program or runs inside a timed region.  The
reference times are the probes' median times on the 2-core Xeon
(2.1 GHz) the benchmark was tuned on; they only set the scale the
metrics are reported in.
"""

from __future__ import annotations

import subprocess
import sys
import time
from fractions import Fraction

REFERENCE_S = 2.0e-3
IMPORT_REFERENCE_S = 5.5e-2

SIZE = 7
ROUNDS = 3
REPEATS = 3
MATRIX = [[Fraction((7 * i + 3 * j) % 11 - 5, 1 + (i + j) % 3) for j in range(SIZE)]
          for i in range(SIZE)]

IMPORT_PROBE = ("import time\n"
                "began = time.perf_counter()\n"
                "import email.parser, http.client, sqlite3, tarfile, unittest, xml.dom.minidom\n"
                "print(time.perf_counter() - began)\n")


def _eliminate():
    rows = [row[:] for row in MATRIX]
    for col in range(SIZE):
        pivot = next((r for r in range(col, SIZE) if rows[r][col]), None)
        if pivot is None:
            continue
        rows[col], rows[pivot] = rows[pivot], rows[col]
        for r in range(col + 1, SIZE):
            factor = rows[r][col] / rows[col][col]
            rows[r] = [x - factor * y for x, y in zip(rows[r], rows[col])]
    return rows


def probe_s() -> float:
    """Fastest of ``REPEATS`` timings of ``ROUNDS`` eliminations."""
    best = float("inf")
    for _ in range(REPEATS):
        began = time.perf_counter()
        for _ in range(ROUNDS):
            _eliminate()
        best = min(best, time.perf_counter() - began)
    return best


def import_probe_s() -> float:
    """Time a fresh interpreter takes to import the ``IMPORT_PROBE`` modules."""
    proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE],
                          capture_output=True, text=True, timeout=60, check=True)
    return float(proc.stdout)


def scale(seconds: float, probes, reference: float = REFERENCE_S) -> float:
    """``seconds`` measured while the probe took ``mean(probes)``, at reference speed."""
    return seconds * reference * len(probes) / sum(probes)
