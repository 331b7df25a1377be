"""One cold workload pass, run in a fresh interpreter by perfbench/run.py.

Usage: child.py WORKLOAD SEED PASS_INDEX TRACE SMOKE WORKDIR SPAWNED_AT

SPAWNED_AT is the parent's time.monotonic() just before the spawn, so the
set-up time covers interpreter start, importing freeops.cli and writing the
instance files.  With WORKLOAD set to "-" the pass stops after set-up.
Prints one JSON line: set-up seconds, per-query exit code and seconds, and
the peak RSS of this process.
"""

import json
import resource
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def main(argv):
    workload, seed, pass_index, trace, smoke, workdir, spawned_at = argv
    seed, pass_index, trace, smoke = int(seed), int(pass_index), trace == "1", smoke == "1"
    workdir = Path(workdir)
    sys.path[:0] = [str(SRC), str(HERE)]
    from freeops import cli

    if not Path(cli.__file__).resolve().is_relative_to(SRC.resolve()):
        raise SystemExit(f"freeops imported from {cli.__file__}, not from {SRC}")
    import workloads

    paths = workloads.write_instances(workdir, seed, pass_index)
    setup_s = time.monotonic() - float(spawned_at)
    result = {"setup_s": setup_s, "queries": []}
    if workload != "-":
        w = workloads.WORKLOADS[workload]
        queries = w.smoke if smoke else w.queries
        tracer = None
        if trace:
            import tracer as tracing

            tracer = tracing.Tracer().install()
        for i, query in enumerate(queries):
            argv_i = workloads.resolve_argv(query, paths) + ["--out", str(workdir / f"report{i}.json")]
            error = None
            span = None
            if tracer is not None:
                tracer.run = i
                span = tracer.open(f"cli.{query.subcommand}")
            start = time.perf_counter()
            try:
                code = cli.main(argv_i)
            except Exception:  # a crash is a failed query; the pass goes on
                code = None
                error = traceback.format_exc()
            seconds = time.perf_counter() - start
            if span is not None:
                tracer.close(span)
            result["queries"].append({"code": code, "seconds": seconds, "error": error})
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if tracer is not None:
            tracer.uninstall()
            (workdir / "trace.json").write_text(json.dumps(tracer.to_json()))
    print(json.dumps(result))


if __name__ == "__main__":
    main(sys.argv[1:])
