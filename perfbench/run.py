#!/usr/bin/env python3
"""Entry point of the ringrsa benchmark; see bench.py for what it measures.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
"""

import sys

sys.dont_write_bytecode = True  # keep perfbench/ free of generated files

from bench import main  # noqa: E402

if __name__ == "__main__":
    sys.exit(main())
