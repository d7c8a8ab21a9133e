"""One benchmark set-up in a fresh interpreter.

Imports nillab, loads and validates the given INI config, builds its systems
and prints the seconds that took.  Usage:

    python3 perfbench/setup_probe.py <nillab src dir> <config.ini>
"""

import sys
import time

started = time.perf_counter()
sys.path.insert(0, sys.argv[1])

from nillab import config  # noqa: E402

cfg = config.load_config(sys.argv[2])
cfg.system()
cfg.joining()
cfg.observable()
cfg.plan(cfg.checkpoints[-1])
print(repr(time.perf_counter() - started))
