"""Set-up probe, run in a fresh interpreter by ``run.py``.

Times importing ``formevol``, parsing a config and building its model
(including the uniform-semibound scan) and prints the seconds.

Usage: python3 perfbench/probe.py SRC_DIR CONFIG
"""

import sys
import time

start = time.perf_counter()
sys.path.insert(0, sys.argv[1])

from formevol.config import parse_config  # noqa: E402
from formevol.runs import build_model  # noqa: E402

with open(sys.argv[2], encoding="utf-8") as handle:
    build_model(parse_config(handle.read()))
print(repr(time.perf_counter() - start))
