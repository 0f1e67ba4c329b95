"""Time one cold set-up of a workload in a fresh interpreter.

Reads the scenario text on stdin and prints the seconds spent importing
ringsim, parsing the scenario and constructing every cell's Engine (topology
generation, node state, waypoint init).

    python3 perfbench/setup_probe.py SRC_DIR < scenario.cfg
"""

import sys
import time


def main() -> None:
    text = sys.stdin.read()
    start = time.perf_counter()
    sys.path.insert(0, sys.argv[1])
    from ringsim.config import parse_config_text
    from ringsim.engine import Engine
    from ringsim.experiment import sweep_cells

    scenario = parse_config_text(text)
    for protocol, variant, pause, seed in sweep_cells(scenario):
        Engine(scenario.to_run_config(protocol, variant, pause, seed))
    print(repr(time.perf_counter() - start))


if __name__ == "__main__":
    main()
