"""Traced cold CLI run: ``python perfbench/child.py SPANS_FILE ARG...``.

Runs ``python -m ecometab ARG...`` in this process through ``runpy``, with
the tracer installed around it, and writes the spans and counts to
SPANS_FILE as JSON. The parent benchmark merges them into its own trace.
"""

import json
import runpy
import sys

import spans


def main():
    out_path = sys.argv.pop(1)
    import ecometab.cli  # noqa: F401  (the tracer wraps what is imported)

    tracer = spans.Tracer()
    try:
        with tracer.installed():
            runpy.run_module("ecometab", run_name="__main__", alter_sys=True)
    finally:
        with open(out_path, "w", encoding="utf-8") as stream:
            json.dump({"spans": tracer.spans, "counts": tracer.counts}, stream)


if __name__ == "__main__":
    main()
