"""Time ``wmdlab.cli.build_pipeline`` once, in this fresh process, after imports.

    python3 setup_probe.py <wmdlab arguments>

Prints one JSON line: the seconds taken and where ``wmdlab`` was imported from.
"""

import json
import sys
import time

import wmdlab
from wmdlab import cli


def main(argv: list[str]) -> int:
    cfg = cli.build_config(cli.make_parser().parse_args(argv))
    start = time.perf_counter()
    cli.build_pipeline(cfg)
    elapsed = time.perf_counter() - start
    print(json.dumps({"setup_s": elapsed, "module": wmdlab.__file__}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
