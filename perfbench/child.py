"""One timed run of a benchmark workload, in a fresh process.

Usage: child.py PLAN.json RESULT.json

The plan names the source tree, the spec files and the argv of each
``rmp`` command.  The child imports ``rmp.cli`` and loads every spec
(the set-up the parent times), then calls ``rmp.cli.main`` on each
command with stdout and stderr captured, and writes a JSON result:
the CLOCK_MONOTONIC time at which set-up ended, each command's return
code, seconds in ``rmp.cli.main`` and stdout, and (when the plan asks
for a trace) the recorded spans.
"""

import contextlib
import io
import json
import sys
import time
import traceback


def main(plan_path: str, result_path: str) -> None:
    with open(plan_path, encoding="utf-8") as f:
        plan = json.load(f)
    sys.path.insert(0, plan["src"])
    import rmp.cli

    for path in plan["specs"]:
        rmp.cli.load_spec(path)
    ready = time.clock_gettime(time.CLOCK_MONOTONIC)

    tracer = None
    if plan["trace"]:
        import tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)

    commands = []
    for i, argv in enumerate(plan["commands"]):
        out, err = io.StringIO(), io.StringIO()
        rc, error = None, None
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                if tracer is None:
                    rc = rmp.cli.main(argv)
                else:
                    tracer.request = i
                    with tracer.span("cli.main"):
                        rc = rmp.cli.main(argv)
        except SystemExit as e:  # argparse rejects its argv this way
            rc = e.code
        except Exception:  # recorded and counted as a failed command
            error = traceback.format_exc(limit=3)
        seconds = time.perf_counter() - t0
        commands.append({
            "rc": rc, "seconds": seconds, "stdout": out.getvalue(),
            "stderr": err.getvalue(), "error": error,
        })

    result = {
        "ready": ready,
        "commands": commands,
        "spans": tracer.spans if tracer is not None else [],
    }
    with open(result_path, "w", encoding="utf-8") as f:
        json.dump(result, f)


if __name__ == "__main__":
    main(sys.argv[1], sys.argv[2])
