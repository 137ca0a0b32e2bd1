"""Process environment for the benchmark; import before numpy.

Pins BLAS/OpenMP pools to one thread, so the only concurrency in a run is
the campaign's worker threads, and puts the checkout's ``src/`` first on
``sys.path`` so the benchmark measures the source tree it sits in.
"""

import os
import sys
from pathlib import Path

for _var in (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
):
    os.environ[_var] = "1"

if "numpy" in sys.modules:
    raise RuntimeError("perfbench.env must be imported before numpy")

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

if not (SRC / "sofsyn" / "__init__.py").is_file():
    sys.stderr.write(f"error: no sofsyn source tree at {SRC}\n")
    sys.exit(2)

sys.path.insert(0, str(SRC))
