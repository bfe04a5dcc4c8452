"""Run one semigeo CLI invocation in-process with the layers traced.

    python3 trace_child.py SPANS_JSON OP_ID <semigeo CLI arguments...>

Imports semigeo from PYTHONPATH, wraps its layers (see tracing.py),
calls ``semigeo.cli.main`` and writes the spans and counters to
SPANS_JSON.  Exits with the CLI's exit code.
"""

import json
import sys
import time

import tracing


def main(argv):
    spans_path, op_id, cli_args = argv[0], argv[1], argv[2:]
    tracer = tracing.Tracer()
    config = tracing.install(tracer)
    from semigeo.cli import main as cli_main

    start = time.perf_counter()
    code = cli_main(cli_args)
    wall = time.perf_counter() - start
    doc = {
        "op": op_id,
        "wall_s": wall,
        "config_h1": config.get("h1"),
        "counts": tracer.counts,
        "spans": tracer.spans,
    }
    with open(spans_path, "w") as fh:
        json.dump(doc, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
