"""Run the evrforge command line with the benchmark's tracer installed.

    python3 perfbench/traced_cli.py SPANS_FILE [evrforge arguments...]

Behaves like ``python -m evrforge.cli`` and appends one JSON line with this
process's spans and counts to SPANS_FILE.  The import of the CLI and the
call of ``main`` are the top-level spans; interpreter start and exit are
what they leave uncovered.  The op id comes from ``PERFBENCH_OP``.
"""

import json
import os
import sys

from tracer import Tracer


def main() -> int:
    out, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.op = int(os.environ.get("PERFBENCH_OP", "0"))
    with tracer.span("cli.import"):
        from evrforge import cli
    tracer.install()
    with tracer.span("cli.main"):
        code = cli.main(argv)
    sys.stdout.flush()
    with open(out, "a", encoding="utf-8") as handle:
        handle.write(json.dumps(tracer.export()) + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
