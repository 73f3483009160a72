"""Run one `bfa` command line with tracing on, then save the spans.

Usage: python traced_cli.py SPANS_JSON CLI_ARG...

The cli workload starts its commands through this file in a traced run;
the spans and wht input digests go to SPANS_JSON for the parent to merge.
"""

import json
import sys

import bfa.cli
from spans import Recorder, instrument


def main() -> int:
    path, argv = sys.argv[1], sys.argv[2:]
    recorder = Recorder()
    recorder.job = 0
    with instrument(recorder):
        code = bfa.cli.main(argv)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(recorder.export(), handle)
    return code


if __name__ == "__main__":
    sys.exit(main())
