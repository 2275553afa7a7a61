"""Print the seconds a fresh process takes to import logipure and resolve a config.

    python3 perfbench/setup_probe.py SRC EXPERIMENT CONFIG

Nothing is imported before the clock starts, so the figure covers the
package import (numpy included) and ``cli.load_config`` only.
"""

import sys
import time

t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
from logipure import cli  # noqa: E402

cli.load_config(sys.argv[2], sys.argv[3])
print(repr(time.perf_counter() - t0))
