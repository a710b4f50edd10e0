"""Run one ``wva`` command in this fresh interpreter with its public calls traced.

Usage: python bench/trace_child.py SPANS_JSON -- WVA_ARGS...

Behaves like ``python -m wva.cli WVA_ARGS...`` (same exit code, same
traceback on an uncaught exception) and writes the spans, tallies and
counters of the command to SPANS_JSON when it ends.  ``wva`` is found on
``PYTHONPATH``.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import tracing  # noqa: E402

if __name__ == "__main__":
    spans_path, separator, *argv = sys.argv[1:]
    if separator != "--":
        sys.exit("usage: trace_child.py SPANS_JSON -- WVA_ARGS...")
    tracer = tracing.Tracer()
    tracer.begin_op(0)
    index = tracer.open("import")
    import wva
    import wva.cli

    tracer.close(index)
    tracing.instrument(tracer, wva, cold_integrate=True)
    try:
        code = wva.cli.main(argv)
    finally:
        tracing.write(spans_path, tracer.dump())
    sys.exit(code)
