"""conescale benchmark: three CLI workloads, end to end and by layer.

Usage (from the repository root):

    python3 bench/run.py --workload cylinder64 --seed 0 --seconds 30 --trace 0
    python3 bench/run.py --selftest

Every iteration runs ``conescale.cli.main`` in a fresh interpreter, one
process at a time, with the BLAS thread count pinned.  Each report is
checked, and all reports of one run must be byte-identical.

--trace 0 prints the end-to-end metrics: wall_s (median duration of
main(argv)), setup_s (median time from spawn until conescale.cli is
imported, over extra set-up-only spawns and every iteration) and
peak_rss_mib (median child ru_maxrss).  --trace 1 alternates untraced and
traced iterations and prints the per-layer metrics of the traced ones,
plus the tracing overhead.  --selftest runs each workload traced at seed 0
and compares its call counts with those recorded at the seed commit.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  Scratch files go to .bench_work/
in the repository root.
"""

import argparse
import json
import os
import re
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")
CHILD = os.path.join(HERE, "child.py")

BLAS_THREADS = 1
SETUP_SPAWNS = 5
CHILD_TIMEOUT_S = 150
BUDGET_S = 150
WARNING_LINE = re.compile(r"^.*\b\w*Warning: ", re.MULTILINE)

CALLS = ("transform.forward", "transform.inverse",
         "transform.evaluate_continuation", "pencil.spectrum",
         "pencil.resolvent_apply_batch", "stencils.derivative",
         "hardy.halfline_projection", "solver.solve_const",
         "solver.solve_variable")
COUNTERS = ("transform.samples", "pencil.resolvent.nodes",
            "pencil.resolvent.failures", "solver.neumann.sweeps",
            "solver.certificate.rays_blown")

sys.path.insert(0, HERE)
from spans import TARGETS  # noqa: E402
from workloads import WORKLOADS, CheckError  # noqa: E402

SELF_TIMES = tuple(dict.fromkeys(span for span, *_ in TARGETS))


def log(message):
    print(message, file=sys.stderr, flush=True)


def cores():
    return len(os.sched_getaffinity(0))


def child_env():
    env = dict(os.environ)
    threads = str(min(BLAS_THREADS, cores()))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = threads
    return env


class Iteration:
    """One child process: its result JSON, report bytes and stderr."""

    def __init__(self, tag, argv=None, trace=False, env_probe=False):
        self.report_path = os.path.join(WORK, f"{tag}.csv")
        result_path = os.path.join(WORK, f"{tag}.result.json")
        stderr_path = os.path.join(WORK, f"{tag}.stderr")
        for path in (self.report_path, result_path):
            if os.path.exists(path):
                os.remove(path)
        full_argv = None if argv is None else argv(self.report_path)
        with open(stderr_path, "w", encoding="utf-8") as err:
            spawned = time.monotonic()
            spec = {"spawned": spawned, "src": SRC, "argv": full_argv,
                    "trace": trace, "env": env_probe, "result": result_path}
            proc = subprocess.Popen(
                [sys.executable, CHILD, json.dumps(spec)], cwd=ROOT,
                env=child_env(), stdin=subprocess.DEVNULL,
                stdout=err, stderr=err)
            try:
                self.exit_code = proc.wait(timeout=CHILD_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                self.exit_code = None
            finally:
                if proc.poll() is None:
                    proc.kill()
                    proc.wait()
        with open(stderr_path, encoding="utf-8", errors="replace") as fh:
            self.stderr = fh.read()
        self.warnings = len(WARNING_LINE.findall(self.stderr))
        self.result = None
        if os.path.exists(result_path):
            with open(result_path, encoding="utf-8") as fh:
                self.result = json.load(fh)
        self.report = None
        if full_argv is not None and os.path.exists(self.report_path):
            with open(self.report_path, "rb") as fh:
                self.report = fh.read()

    def failure(self, workload):
        """None if the run and its report pass every check, else why not."""
        if self.exit_code != 0 or self.result is None:
            return f"child exited {self.exit_code}: {self.stderr[-2000:]}"
        if self.result.get("rc") != 0:
            return f"CLI returned {self.result.get('rc')}: {self.stderr[-2000:]}"
        if self.report is None:
            return "no report written"
        try:
            workload.check(self.report.decode("utf-8"))
        except (CheckError, ValueError) as exc:
            return f"report check failed: {exc}"
        return None


def median(values):
    return float(statistics.median(values))


def layer_metrics(traced, untraced):
    """Per-layer metrics from traced iterations (medians across them)."""
    def per_span(span, key):
        return median([it.result["trace"]["spans"].get(span, {}).get(key, 0)
                       for it in traced])

    metrics = {}
    for span in CALLS:
        metrics[f"{span}.calls"] = (per_span(span, "calls"), "count")
    for span in SELF_TIMES:
        metrics[f"{span}.self_s"] = (per_span(span, "self_s"), "s")
    for counter in COUNTERS:
        metrics[counter] = (median([it.result["trace"]["counters"].get(counter, 0)
                                    for it in traced]), "count")
    calls = metrics["pencil.spectrum.calls"][0]
    distinct = median([it.result["trace"]["distinct_pencils"] for it in traced])
    metrics["pencil.spectrum.distinct_ratio"] = (
        distinct / calls if calls else 0.0, "ratio")
    metrics["cli.report.bytes"] = (median([len(it.report) for it in traced]),
                                   "bytes")
    metrics["cli.warnings"] = (median([it.warnings for it in traced]), "count")
    overhead = (median([it.result["wall_s"] for it in traced])
                / median([it.result["wall_s"] for it in untraced]) - 1.0)
    metrics["trace.overhead_frac"] = (overhead, "frac")
    return metrics


def missing_layers(it, workload):
    spans = it.result["trace"]["spans"]
    return [s for s in workload.layers if spans.get(s, {}).get("calls", 0) == 0]


def environment(probe):
    sha = "unknown"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                 capture_output=True, text=True,
                                 timeout=30).stdout.strip() or sha
        except (OSError, subprocess.SubprocessError):
            pass
    package = os.path.join(SRC, "conescale")
    lines = {}
    for fname in sorted(os.listdir(package)):
        if fname.endswith(".py"):
            with open(os.path.join(package, fname), encoding="utf-8") as fh:
                lines[fname] = sum(1 for _ in fh)
    return dict(probe, git_sha=sha, cores=cores(),
                blas_threads_pinned=min(BLAS_THREADS, cores()),
                src_lines=lines, src_lines_total=sum(lines.values()))


def run(name, seed, seconds, trace):
    workload = WORKLOADS[name](seed, WORK)
    log(f"bench: {name} seed={seed} seconds={seconds} trace={trace}")
    # the first spawn warms the bytecode and page caches and is not counted;
    # set-up time is only reported by untraced runs
    probes = [Iteration("setup", env_probe=True)
              for _ in range(1 + (0 if trace else SETUP_SPAWNS))]
    for probe in probes:
        if probe.exit_code != 0 or probe.result is None:
            raise SystemExit(f"bench: interpreter set-up failed: {probe.stderr}")
    env = environment(probe.result["env"])
    print(json.dumps({"env": env}, sort_keys=True))
    setups = [probe.result["setup_s"] for probe in probes[1:]]

    untraced, traced, attempted, failed = [], [], 0, 0
    reference = None
    start = time.monotonic()
    longest_round = 0.0
    while True:
        round_start = time.monotonic()
        for traced_run in ((False, True) if trace else (False,)):
            tag = f"{name}-{'traced' if traced_run else 'plain'}"
            it = Iteration(tag, workload.argv, trace=traced_run)
            attempted += 1
            why = it.failure(workload)
            if why is None and reference is None:
                reference = it.report
            if why is None and it.report != reference:
                why = "report bytes differ from the first report of this run"
            if why is None and traced_run and missing_layers(it, workload):
                why = f"trace shows no calls to {missing_layers(it, workload)}"
            if why is not None:
                failed += 1
                log(f"bench: iteration failed: {why}")
                continue
            setups.append(it.result["setup_s"])
            (traced if traced_run else untraced).append(it)
            log(f"bench:   {tag} wall_s={it.result['wall_s']:.3f} "
                f"setup_s={it.result['setup_s']:.3f} "
                f"rss_mib={it.result['maxrss_kib'] / 1024:.1f} "
                f"warnings={it.warnings}")
        now = time.monotonic()
        longest_round = max(longest_round, now - round_start)
        if now - start >= seconds or now - start + longest_round > BUDGET_S:
            break
        if failed and not (untraced or traced):
            break

    if not untraced or (trace and not traced):
        log("bench: no iteration succeeded")
        raise SystemExit(1)
    if trace:
        metrics = layer_metrics(traced, untraced)
        with open(os.path.join(WORK, f"trace-{name}-{seed}.json"), "w",
                  encoding="utf-8") as fh:
            json.dump({"env": env, "iterations": [it.result for it in traced]},
                      fh, indent=1, sort_keys=True)
    else:
        metrics = {
            "wall_s": (median([it.result["wall_s"] for it in untraced]), "s"),
            "setup_s": (median(setups), "s"),
            "peak_rss_mib": (median([it.result["maxrss_kib"] / 1024
                                     for it in untraced]), "MiB"),
        }
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {key: {"value": value, "unit": unit}
                        for key, (value, unit) in metrics.items()}}


def selftest():
    """Traced seed-0 call counts against those recorded at the seed commit."""
    ok = True
    for name, cls in WORKLOADS.items():
        workload = cls(0, WORK)
        it = Iteration(f"{name}-selftest", workload.argv, trace=True)
        why = it.failure(workload)
        if why is None and missing_layers(it, workload):
            why = f"no calls to {missing_layers(it, workload)}"
        if why is not None:
            log(f"selftest {name}: FAIL: {why}")
            ok = False
            continue
        trace = it.result["trace"]
        for key, want in workload.seed_counts.items():
            got = trace["counters"].get(key)
            if got is None:
                got = trace["spans"].get(key, {}).get("calls", 0)
            status = "ok" if got == want else "DIFFERS"
            ok &= got == want
            log(f"selftest {name}: {key} = {got} (recorded {want}) {status}")
    return ok


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "conescale", "cli.py")):
        log(f"bench: no conescale sources under {SRC}")
        return 2
    os.makedirs(WORK, exist_ok=True)
    if args.selftest:
        return 0 if selftest() else 1
    if args.workload is None:
        parser.error("--workload is required")
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
