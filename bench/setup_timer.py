"""Time pfiber's set-up in a fresh interpreter.

Usage: python3 setup_timer.py <src dir> <JSON list of raw configs>

Prints the seconds taken by ``import pfiber.cli`` plus ``resolve_config`` on
every config (mesh, coefficient samples and ProblemSpec), the cost every CLI
call pays before it computes.
"""

import json
import sys
import time


def main():
    src, configs = sys.argv[1], json.loads(sys.argv[2])
    sys.path.insert(0, src)
    start = time.perf_counter()
    import pfiber.cli

    for config in configs:
        pfiber.cli.resolve_config(config)
    print(repr(time.perf_counter() - start))


if __name__ == "__main__":
    main()
