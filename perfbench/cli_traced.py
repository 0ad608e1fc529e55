"""Run the zcrit CLI with the layer wrappers installed.

Usage: python cli_traced.py --spans FILE <zcrit arguments...>
Spans are written to FILE when the command returns; the exit code is
the CLI's own.
"""

import sys

from tracing import Tracer, install_layer_wrappers


def main() -> int:
    if len(sys.argv) < 3 or sys.argv[1] != "--spans":
        print("usage: cli_traced.py --spans FILE ARGS...", file=sys.stderr)
        return 64
    import zcrit.cli

    tracer = Tracer()
    install_layer_wrappers(tracer)
    try:
        return zcrit.cli.main(sys.argv[3:])
    finally:
        tracer.uninstall()
        tracer.dump(sys.argv[2])


if __name__ == "__main__":
    sys.exit(main())
