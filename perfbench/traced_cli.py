"""Run one tomoscreen command in-process with spans installed.

Usage: python3 perfbench/traced_cli.py SPANS_JSON -- <tomoscreen arguments>

Imports the package, wraps its public functions (see spans.py), runs
`tomoscreen.cli.main` inside a root span and writes every span and
counter to SPANS_JSON. Exits with the command's own exit code.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import spans


def main(argv: list[str]) -> int:
    if len(argv) < 2 or argv[1] != "--":
        print("usage: traced_cli.py SPANS_JSON -- <tomoscreen arguments>", file=sys.stderr)
        return 2
    out, cli_args = Path(argv[0]), argv[2:]
    import tomoscreen.cli as cli

    rec = spans.Recorder()
    missing = spans.instrument(rec)
    code = rec.call(spans.ROOT_SPAN, cli.main, cli_args)
    data = rec.dump()
    data["missing_targets"] = missing
    out.write_text(json.dumps(data))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
