"""Run one haltongain CLI operation the way its console script does.

    python3 launch.py REPORT plain|trace|probe CLI-ARGS...

Before dispatch it stamps the monotonic clock, the moment the CLI is imported
and ready, which the runner subtracts from the launch time to get setup_s.
`probe` stops there, without dispatching.
With `trace`, the span tracer is installed next and its report joins the
stamp.  The report is one JSON object written to REPORT when the op ends.
"""

import json
import sys
import time


def main() -> int:
    report_path, mode, argv = sys.argv[1], sys.argv[2], sys.argv[3:]
    from haltongain.cli import main as cli_main

    report = {"ready": time.monotonic()}
    try:
        if mode == "probe":
            return 0
        if mode == "plain":
            return cli_main(argv)
        from spans import Tracer

        tracer = Tracer(" ".join(argv))
        tracer.install()
        try:
            return tracer.wrap("cli.main", cli_main)(argv)
        finally:
            report["trace"] = tracer.report()
    finally:
        sys.stdout.flush()
        with open(report_path, "w") as fh:
            json.dump(report, fh)


if __name__ == "__main__":
    sys.exit(main())
