"""Child runner: one `axiswirl` invocation in a fresh interpreter.

    python3 child.py RESULT.json TRACE AXISWIRL_ARGS...

With TRACE 0 the only instrumentation is a timestamp (CLOCK_MONOTONIC,
comparable with the parent's clock) on each entry into the
`axiswirl.cli.run` binding, i.e. the start of time integration.  With
TRACE 1 the layer boundaries listed in tracer.py are wrapped as well.
The result file is written after `main` returns; the exit status is the
program's own.
"""

import json
import sys
import time


def main() -> int:
    result_path, trace, argv = sys.argv[1], sys.argv[2] == "1", sys.argv[3:]

    import axiswirl.cli as cli

    entries = []
    tracer = None
    if trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    solver_run = cli.run

    def marked_run(*args, **kwargs):
        entries.append(time.monotonic())
        return solver_run(*args, **kwargs)

    cli.run = marked_run
    try:
        return cli.main(argv)
    finally:
        out = {"solver_entry": min(entries) if entries else None}
        if tracer is not None:
            out.update(tracer.dump())
        with open(result_path, "w") as fh:
            json.dump(out, fh)


if __name__ == "__main__":
    sys.exit(main())
