"""Self-tests of the lmbench harness (not part of tier-1's ``testpaths``).

Run with ``PYTHONPATH=src python -m pytest benchmarks/lmbench/tests -q``.
"""

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
LMBENCH = os.path.dirname(HERE)
SRC = os.path.join(os.path.dirname(os.path.dirname(LMBENCH)), "src")
for path in (SRC, LMBENCH):
    if path not in sys.path:
        sys.path.insert(0, path)
