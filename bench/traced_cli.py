"""Run one ``qheun`` command with the span recorder installed.

Usage: python traced_cli.py SPANS_FILE COMMAND [ARGS...]

The spans go to SPANS_FILE together with ``run_ns``, the time spent
inside ``qheun.cli.run``; the process exits with the command's code.
"""

import sys

import tracing


def main(argv):
    rec = tracing.Recorder()
    import qheun.cli
    rec.install()
    try:
        return qheun.cli.run(argv[1:])
    finally:
        rec.uninstall()
        sys.stdout.flush()
        rec.dump(argv[0], run_ns=rec.top_span_ns("cli.run"))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
