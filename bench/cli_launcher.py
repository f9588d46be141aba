"""Run the pdmsi command line with the benchmark's trace wrappers installed.

Records the import of ``pdmsi.cli`` as the span ``cli.import``, installs the
wrappers from ``tracing``, calls ``pdmsi.cli.main`` with the remaining
arguments and writes the recorder as JSON to TRACE_OUT.

Usage: python3 bench/cli_launcher.py TRACE_OUT CLI_ARGS...
"""

import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))


def main() -> int:
    start = time.perf_counter()
    import pdmsi.cli

    end = time.perf_counter()
    import tracing

    rec = tracing.Recorder()
    rec.add_span("cli.import", start, end)
    tracing.install(rec)
    code = pdmsi.cli.main(sys.argv[2:])
    Path(sys.argv[1]).write_text(json.dumps(rec.to_json()))
    return code


if __name__ == "__main__":
    sys.exit(main())
