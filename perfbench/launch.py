"""Run one ``istlab.cli`` command with span wrappers installed.

    python3 perfbench/launch.py SPANS_FILE CLI_ARG...

The command's stdout, stderr and exit code are those of ``istlab.cli``.
When it ends, SPANS_FILE receives {"import_ms": ..., "spans": [...]}.
"""

import json
import sys
import time
from pathlib import Path


def main() -> int:
    spans_file, argv = sys.argv[1], sys.argv[2:]
    start = time.perf_counter()
    import istlab.cli

    import_ms = 1e3 * (time.perf_counter() - start)
    import tracing

    tracer = tracing.Tracer()
    tracer.install()
    try:
        return istlab.cli.main(argv)
    finally:
        tracer.uninstall()
        spans = tracing.with_facts(tracer.take())
        Path(spans_file).write_text(json.dumps({"import_ms": import_ms, "spans": spans}))


if __name__ == "__main__":
    sys.exit(main())
