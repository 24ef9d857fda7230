"""Run the apimod CLI with layer spans recorded (the traced cli-ci run).

Usage: python3 bench/cli_trace.py <apimod arguments>; the spans are written
as JSON to the file named by $BENCH_SPANS and the exit code is apimod's.
"""

import json
import os
import sys

from spans import Tracer


def main() -> int:
    import apimod.cli

    tracer = Tracer()
    tracer.install()
    try:
        return apimod.cli.main(sys.argv[1:])
    finally:
        tracer.uninstall()
        with open(os.environ["BENCH_SPANS"], "w", encoding="utf-8") as out:
            json.dump(tracer.spans, out)


if __name__ == "__main__":
    sys.exit(main())
