"""Traced CLI entry: ``python cli_child.py SPANS_PATH -- <optoepr arguments>``.

Imports the package inside a ``cli.import`` span, installs the same span
wrappers as the in-process workloads, runs ``optoepr.cli.main`` inside a
``cli.main.<command>`` span, writes the spans to SPANS_PATH and exits with
the command's exit code.
"""

import sys
from time import perf_counter

import tracing


def main():
    spans_path, separator, *argv = sys.argv[1:]
    if separator != "--" or not argv:
        raise SystemExit("usage: cli_child.py SPANS_PATH -- COMMAND [ARGS...]")
    tracer = tracing.Tracer()
    start = perf_counter()
    import optoepr.cli
    tracer.add("cli.import", start, perf_counter())
    tracing.install(tracer)
    tracer.active = True
    try:
        code = tracer.span(f"cli.main.{argv[0]}", optoepr.cli.main, argv)
    finally:
        tracer.active = False
        tracing.dump_spans(tracer.spans, spans_path)
    return code


if __name__ == "__main__":
    sys.exit(main())
