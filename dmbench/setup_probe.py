"""Time one set-up of a workload in a fresh process: import dmspec and load its configs.

Usage: python3 setup_probe.py SRC_DIR CONFIG_JSON...
Prints the seconds taken.
"""

import sys
from pathlib import Path

sys.path.insert(0, sys.argv[1])
sys.path.insert(1, str(Path(__file__).resolve().parent))

from workloads import set_up  # noqa: E402

print(repr(set_up(sys.argv[2:])[1]))
