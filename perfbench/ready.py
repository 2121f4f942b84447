"""Set-up probe: prepare one workload in a fresh interpreter, print ``ready``.

``run.py`` times this script from process start to exit for ``setup_s``
(``service-mixed`` times the service's own start instead).  The same
``warm()`` runs inside the benchmark process before anything is timed.

    python3 perfbench/ready.py paper-tables
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))


def main(workload: str) -> int:
    from run import workload_module

    workload_module(workload).warm()
    print("ready")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
