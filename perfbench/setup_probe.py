"""Set one workload up in a fresh interpreter and exit: import smra, build
the scenario and fill its value tables. run.py times whole runs of this
script as `setup_s`.

    python3 -I perfbench/setup_probe.py <workload>
"""

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from workloads import WORKLOADS  # noqa: E402

WORKLOADS[sys.argv[1]].setup()
