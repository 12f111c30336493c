"""Run the sgideals CLI with the span tracer installed; write the spans and
work counters to SPANS_OUT when it ends, then exit with the CLI's code.

    python3 perfbench/cli_shim.py SPANS_OUT ARG...

Run from the root of a checkout; ARG... are the CLI's own arguments.  The
import of the package is recorded as the span `cli.import`.
"""
from __future__ import annotations

import os
import sys

import inputs
import layers
import spans


def main() -> int:
    out_path, argv = sys.argv[1], sys.argv[2:]
    tracer = spans.Tracer()
    i = tracer.begin("cli.import")
    sg = inputs.import_sgideals(os.getcwd())
    tracer.finish(i)
    observers = layers.Observers()
    tracer.install(sg, inputs.MODULES, observers.callbacks())
    try:
        return sg.cli.main(argv)
    finally:
        tracer.dump(out_path, counters=observers.count)


if __name__ == "__main__":
    sys.exit(main())
