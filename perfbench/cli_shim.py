"""Run the entroseal CLI with the benchmark's spans installed.

    python3 perfbench/cli_shim.py SPANS_OUT OP_ID COMMAND [ARGS...]

behaves as `python -m entroseal COMMAND [ARGS...]` and writes the spans
of the call to SPANS_OUT, one JSON array per line, when it exits.
"""

import sys

import entroseal.cli
from spans import BOUNDARIES, CLI_BOUNDARIES, Tracer


def main() -> int:
    out, op, argv = sys.argv[1], sys.argv[2], sys.argv[3:]
    tracer = Tracer()
    tracer.op = op
    tracer.install(BOUNDARIES + CLI_BOUNDARIES)
    try:
        return entroseal.cli.main(argv)
    finally:
        tracer.dump(out)


if __name__ == "__main__":
    sys.exit(main())
