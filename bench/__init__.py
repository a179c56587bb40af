"""The Elaps benchmark: four workloads, client-side end-to-end metrics and
a per-layer budget.  ``python -m bench run`` is the entry point; see
``bench/README.md`` for the workloads, the metrics and how to read them.

Importing the package makes ``src/`` importable so ``python -m bench``
works from the repository root without ``PYTHONPATH``.
"""

import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_SRC = os.path.join(ROOT, "src")

if os.path.isdir(os.path.join(_SRC, "repro")) and _SRC not in sys.path:
    sys.path.insert(0, _SRC)
