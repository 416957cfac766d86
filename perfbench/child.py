"""Traced stand-in for ``python -m dipolemirror.cli`` in the sweep workload.

Usage: python perfbench/child.py --spans PATH -- <dipolemirror arguments>

Times the import of ``dipolemirror.cli``, installs the spans of
``spans.py``, runs ``main`` on the given arguments and writes the import
time and the spans to PATH as JSON. Exits with ``main``'s exit code.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path


def main() -> int:
    argv = sys.argv[1:]
    if len(argv) < 3 or argv[0] != "--spans" or argv[2] != "--":
        print(__doc__.splitlines()[2].strip(), file=sys.stderr)
        return 2
    start = time.perf_counter()
    import dipolemirror.cli as cli

    import_s = time.perf_counter() - start
    import spans  # after the timed import: it loads numpy itself

    recorder = spans.Recorder()
    spans.install(recorder)
    try:
        code = cli.main(argv[3:])
    finally:
        Path(argv[1]).write_text(json.dumps({"import_s": import_s, "spans": recorder.spans}))
    return code


if __name__ == "__main__":
    sys.exit(main())
