"""Run ``repro serve`` with spans around the server's public callables.

    PYTHONPATH=src python benchmarks/e2e/traced_serve.py --spans PATH serve ...

Everything after ``--spans PATH`` is handed to ``repro.cli.main`` unchanged.
The spans listed in ``spans.SERVER_SPANS`` are recorded in memory while the
server runs and written to ``PATH`` as JSON lines once it has shut down
(SIGTERM drains it as usual).
"""

from __future__ import annotations

import sys
from pathlib import Path


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if len(argv) < 3 or argv[0] != "--spans":
        print("usage: traced_serve.py --spans PATH serve [serve flags]",
              file=sys.stderr)
        return 2
    spans_path = Path(argv[1])
    from repro import cli
    from spans import SERVER_SPANS, SpanRecorder

    recorder = SpanRecorder()
    with recorder.install(SERVER_SPANS):
        code = cli.main(argv[2:])
    spans_path.parent.mkdir(parents=True, exist_ok=True)
    recorder.write(spans_path)
    return code


if __name__ == "__main__":
    sys.exit(main())
