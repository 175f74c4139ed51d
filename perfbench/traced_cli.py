"""Run the ennola command line with its layers traced.

    PERFBENCH_TRACE_OUT=spans.json python3 perfbench/traced_cli.py <ennola args>

Behaves like `python3 -m ennola.cli <args>` and writes the process's
spans to the file named by PERFBENCH_TRACE_OUT when it exits.
"""

import os
import sys

from spans import Tracer, install


def main() -> int:
    tracer = Tracer()
    span = tracer.open("cli.import")
    from ennola import cli

    tracer.close(span)
    install(tracer)
    try:
        return cli.main(sys.argv[1:])
    finally:
        tracer.dump(os.environ["PERFBENCH_TRACE_OUT"])


if __name__ == "__main__":
    sys.exit(main())
