"""Run one lossq CLI call with spans around each module's public functions.

    python perfbench/cli_driver.py SPANS_JSON OP_ID CLI_ARG...

Times ``import lossq.cli``, installs the tracer's wrappers, calls
``lossq.cli.main`` with the remaining arguments, and writes the spans and
counts to SPANS_JSON.  The exit code is the CLI's.
"""

import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from tracer import Tracer  # noqa: E402


def main() -> int:
    out, op, argv = sys.argv[1], int(sys.argv[2]), sys.argv[3:]
    tracer = Tracer()
    tracer.op = op
    with tracer.span("import.lossq"):
        import lossq.cli
    tracer.install()
    try:
        code = lossq.cli.main(argv)
    finally:
        tracer.uninstall()
        sys.stdout.flush()
    tracer.dump(out)
    return code


if __name__ == "__main__":
    sys.exit(main())
