"""freeops benchmark: cold-start CLI workloads, timed from outside.

Usage:
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is one of semigroup-search, orbit-reach, monotone-report, or ``all``
(every workload in turn, for a human-readable table).  Run from the root of
a source checkout: the benchmark imports freeops from ``src/`` and exits
with an error, printing no result, when it is missing.

Each pass runs the workload's queries through ``freeops.cli.main`` in a
fresh child process, so module-level caches start empty as they do for a
user, and one client issues the next query only after the previous report
is written.  Passes repeat until S seconds have been measured.  End-to-end
metrics (``--trace 0``) are medians over passes:

    run_s        wall seconds around the cli.main calls of one pass, which
                 includes report encoding and the --out write
    setup_s      child spawn until freeops.cli is imported and the instance
                 files are written, over several set-up-only children too
    peak_rss_mb  ru_maxrss of the pass's child

Every answer is checked (see workloads.py); ``failed`` counts wrong or
crashed queries.  ``--trace 1`` alternates untraced and traced passes and
reports the per-layer metrics of tracer.py plus the tracing overhead.
Work files go to ``.perfbench_work/`` in the checkout; the spans of the
last traced pass stay in ``.perfbench_work/traces/``.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

sys.path[:0] = [str(HERE), str(SRC)]

import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_SAMPLES = 5  # set-up-only children per run, besides one per pass
RUN_LIMIT_S = 170  # a run must finish well inside 180 seconds

END_TO_END = (("run_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"))

SPAN_LAYERS = (
    "cli.verify-free.s",
    "cli.membership.s",
    "cli.diff.s",
    "cli.reach.s",
    "cli.monotones.s",
    "util.canonical_json.s",
    "exact.matmul.calls",
    "exact.matmul.s",
    "exact.matmul.mults",
    "exact.is_psd.calls",
    "exact.is_psd.s",
    "exact.density_init.calls",
    "exact.density_init.s",
    "exact.digest.calls",
    "exact.digest.s",
    "freerot.freeness_scan.s",
    "freerot.freeness_scan.words",
    "pcp.solve_bounded.s",
    "pcp.solve_bounded.nodes",
    "reduction.phase_canonical.calls",
    "reduction.phase_canonical.s",
    "reduction.membership_search.s",
    "reduction.membership_search.nodes",
    "reduction.membership_search.s_per_node",
    "reduction.theory_diff.s",
    "reduction.theory_diff.nodes",
    "reduction.theory_diff.s_per_node",
    "reduction.apply_to_matrix.calls",
    "reduction.apply_to_matrix.s",
    "reduction.compile_generators.s",
    "reduction.choi.calls",
    "reduction.choi.s",
    "resourcegraph.certify_cptp.calls",
    "resourcegraph.certify_cptp.s",
    "resourcegraph.explore.s",
    "resourcegraph.explore.states",
    "resourcegraph.explore.new_frac",
    "resourcegraph.reach.s",
    "resourcegraph.quotient.s",
    "resourcegraph.quotient.classes",
    "resourcegraph.monotone_family.s",
    "resourcegraph.check_compatible.s",
    "resourcegraph.check_complete.s",
)
HARNESS_LAYERS = ("cli.report_bytes", "tracing.overhead_frac")


def layer_unit(name):
    field = name.rsplit(".", 1)[1]
    if field in ("s", "s_per_node"):
        return "s"
    if field in ("new_frac", "overhead_frac"):
        return "fraction"
    if field == "report_bytes":
        return "bytes"
    return "count"


def spawn(workload, seed, pass_index, trace, smoke, workdir, timeout):
    """Run child.py once; returns its parsed result, or None if it failed."""
    spawned_at = time.monotonic()
    args = [
        sys.executable,
        str(HERE / "child.py"),
        workload,
        str(seed),
        str(pass_index),
        str(int(trace)),
        str(int(smoke)),
        str(workdir),
        repr(spawned_at),
    ]
    try:
        proc = subprocess.run(args, stdout=subprocess.PIPE, timeout=timeout, check=False)
    except subprocess.TimeoutExpired:
        print(f"perfbench: pass {pass_index} timed out after {timeout:.0f} s", file=sys.stderr)
        return None
    lines = proc.stdout.decode().strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(f"perfbench: child exited with {proc.returncode}", file=sys.stderr)
        return None
    return json.loads(lines[-1])


class Run:
    """Passes of one workload and everything measured about them."""

    def __init__(self, workload, seed, trace, smoke, workdir):
        self.workload = workloads.WORKLOADS[workload]
        self.queries = self.workload.smoke if smoke else self.workload.queries
        self.seed = seed
        self.trace = trace
        self.smoke = smoke
        self.workdir = workdir
        self.setups = []
        self.run_s = {False: [], True: []}  # traced? -> pass seconds
        self.rss = []
        self.layers = []  # per traced pass: metric -> value
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.counts = []
        self.absent = set()
        self.last_trace = None
        self.passes = 0
        self.started = time.monotonic()

    def time_left(self):
        return RUN_LIMIT_S - (time.monotonic() - self.started)

    def setup_only(self):
        out = spawn("-", self.seed, 0, False, self.smoke, self.workdir, max(5.0, self.time_left()))
        if out is None:
            raise SystemExit("perfbench: set-up failed; is this a freeops checkout?")
        return out["setup_s"]

    def one_pass(self, pass_index, traced):
        """Run, time and check one pass; returns False when it crashed."""
        self.attempted += len(self.queries)
        out = spawn(
            self.workload.name,
            self.seed,
            pass_index,
            traced,
            self.smoke,
            self.workdir,
            max(5.0, self.time_left()),
        )
        if out is None:
            self.failed += len(self.queries)
            self.problems.append(f"pass {pass_index}: child process failed")
            return False
        self.setups.append(out["setup_s"])
        seconds = 0.0
        report_bytes = 0
        for i, (query, res) in enumerate(zip(self.queries, out["queries"])):
            report = self.workdir / f"report{i}.json"
            tiles = workloads.tiles_for(query.instance, self.seed, pass_index) if query.instance else ()
            problems, counts = workloads.check(query, res["code"], report, tiles)
            if res["error"]:
                problems.append(res["error"].strip().splitlines()[-1])
            if problems:
                self.failed += 1
                self.problems.append(f"pass {pass_index} {' '.join(query.argv)}: {'; '.join(problems)}")
            self.counts.append({"query": " ".join(query.argv), "pass": pass_index, **counts})
            seconds += res["seconds"]
            report_bytes += report.stat().st_size if report.exists() else 0
        self.run_s[traced].append(seconds)
        if not traced:
            self.rss.append(out["peak_rss_mb"])
        else:
            trace = json.loads((self.workdir / "trace.json").read_text())
            self.absent.update(trace["absent"])
            layer = {name: tracing.layer_value(trace, name) for name in SPAN_LAYERS}
            layer["cli.report_bytes"] = report_bytes
            self.layers.append(layer)
            self.last_trace = trace
        return True

    def measure(self, seconds):
        # The first child warms the file and bytecode caches; it is not timed.
        self.setup_only()
        for _ in range(SETUP_SAMPLES):
            self.setups.append(self.setup_only())
        start = time.monotonic()
        pass_index = 0
        while pass_index == 0 or time.monotonic() - start < seconds:
            if self.time_left() < 10:
                break
            if not self.one_pass(pass_index, False):
                break
            if self.trace and not self.one_pass(pass_index, True):
                break
            pass_index += 1
        self.passes = pass_index

    # -- results ----------------------------------------------------------------

    def end_to_end(self):
        values = {
            "run_s": self.run_s[False],
            "setup_s": self.setups,
            "peak_rss_mb": self.rss,
        }
        return {
            name: {"value": statistics.median(values[name]), "unit": unit}
            for name, unit in END_TO_END
            if values[name]
        }

    def per_layer(self):
        metrics = {}
        for name in SPAN_LAYERS + ("cli.report_bytes",):
            values = [layer[name] for layer in self.layers]
            if values:
                metrics[name] = {"value": statistics.median(values), "unit": layer_unit(name)}
        if self.run_s[True] and self.run_s[False]:
            overhead = statistics.median(self.run_s[True]) / statistics.median(self.run_s[False]) - 1
            metrics["tracing.overhead_frac"] = {"value": overhead, "unit": "fraction"}
        return metrics

    def metadata(self):
        return {
            "workload": self.workload.name,
            "seed": self.seed,
            "passes": self.passes,
            "run_s_samples": sorted(self.run_s[False]),
            "setup_s_samples": len(self.setups),
            "tail_percentile": tail_percentile(self.run_s[False]),
            "failed_frac": self.failed / self.attempted if self.attempted else None,
            "problems": self.problems,
            "counts": self.counts,
            "absent": sorted(self.absent),
            **environment(),
        }

    def write_trace(self):
        traces = WORK / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        path = traces / f"{self.workload.name}-seed{self.seed}.json"
        path.write_text(json.dumps(self.last_trace))
        return path


def tail_percentile(samples):
    """Highest percentile with at least ten samples beyond it, or None."""
    n = len(samples)
    if n <= 10:
        return None
    pct = 100 * (n - 10) // n
    ordered = sorted(samples)
    return {"percentile": pct, "value": ordered[max(0, -(-pct * n // 100) - 1)], "samples": n}


def environment():
    """Run metadata: nothing here is gated."""
    commit = None
    try:
        git = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
            check=False,
        ).stdout.split()
        if len(git) == 2 and Path(git[0]).resolve() == ROOT:
            commit = git[1]
    except OSError:
        pass
    digest = hashlib.sha256()
    src_lines = 0
    for path in sorted((SRC / "freeops").glob("*.py")):
        text = path.read_bytes()
        digest.update(path.name.encode() + b"\0" + text)
        src_lines += sum(1 for line in text.splitlines() if line.strip())
    return {
        "commit": commit,
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "src_freeops_lines": src_lines,
    }


def run_workload(name, seed, seconds, trace, smoke=False):
    workdir = WORK / f"{name}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        run = Run(name, seed, trace, smoke, workdir)
        run.measure(seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return run


def print_run(run, trace):
    meta = run.metadata()
    e2e = run.end_to_end()
    w = run.workload.name
    for name, m in e2e.items():
        print(f"{w}  {name:<12} {m['value']:.4f} {m['unit']}")
    tail = meta["tail_percentile"]
    print(
        f"{w}  run_s samples {len(meta['run_s_samples'])}; tail percentile "
        + (f"p{tail['percentile']} {tail['value']:.4f} s" if tail else "needs more than 10 samples")
    )
    print(f"{w}  failed_frac  {meta['failed_frac']:.4f} fraction ({run.failed}/{run.attempted} queries)")
    for problem in run.problems:
        print(f"{w}  FAILED {problem}")
    if trace and run.layers:
        for name, m in run.per_layer().items():
            print(f"{w}  {name:<40} {m['value']:.6g} {m['unit']}")
        print(f"{w}  self time, largest first (trace in {run.write_trace()}):")
        for name, s in tracing.self_time_ranking(run.last_trace)[:8]:
            print(f"{w}    {name:<38} {s:.4f} s")
    print(json.dumps({"meta": meta}))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "freeops" / "cli.py").is_file():
        print(f"perfbench: {SRC / 'freeops'} not found; run from a freeops checkout", file=sys.stderr)
        return 2
    names = sorted(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    runs = []
    for name in names:
        run = run_workload(name, args.seed, args.seconds, bool(args.trace))
        print_run(run, args.trace)
        runs.append(run)
    metrics = {}
    for run in runs:
        got = run.per_layer() if args.trace else run.end_to_end()
        prefix = f"{run.workload.name}." if len(runs) > 1 else ""
        metrics.update({prefix + k: v for k, v in got.items()})
    attempted = sum(r.attempted for r in runs)
    failed = sum(r.failed for r in runs)
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
