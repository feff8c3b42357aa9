"""A process that runs ``geoscatt`` CLI commands on request, one at a time.

Reads one JSON list of CLI arguments per line on standard input, runs it
through ``geoscatt.cli.main`` (what the ``geoscatt`` command runs) and
answers with one JSON line holding the exit code. The program's own
output goes to standard error. It exits at end of input.
"""

import contextlib
import json
import sys
import traceback

from geoscatt import cli


def serve() -> None:
    for line in sys.stdin:
        try:
            with contextlib.redirect_stdout(sys.stderr):
                code = cli.main(json.loads(line))
        except SystemExit as exc:  # argparse rejects the arguments
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception:  # an uncategorized failure: report it, keep serving
            traceback.print_exc()
            code = 1
        sys.stderr.flush()
        print(json.dumps({"code": code}), flush=True)


if __name__ == "__main__":
    serve()
