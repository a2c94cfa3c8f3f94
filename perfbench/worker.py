"""One workload in a fresh process: ``worker.py <workload> <inputs> <work> <seconds> <trace>``.

Prints the result as a single JSON line; ``run.py`` starts it.
"""

import sys

from workloads import main

if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
