#!/usr/bin/env python3
"""End-to-end maximal clique enumeration benchmark.

Four workloads (``workloads.py``) time ``find_max_cliques`` end to end:
the paper's Fig. 7/8 sweep, deep hub recursion through the pipeline
executor, dense communities through the barrier executor, and a durable
record-then-resume cycle.  Every result is checked against a whole-graph
``exact_mce`` oracle.  See README.md for the metrics and their bounds.

Usage, from the repository root::

    python3 benchmarks/e2e/bench_e2e.py [--seed S] [--repeats R] [--trace] [--quick]
    python3 benchmarks/e2e/bench_e2e.py --workload NAME --seed S --seconds T --trace 0|1

The first form runs all four workloads, prints every metric with its
unit, writes ``results/latest.json`` and, unless ``--quick``, appends a
line to ``history.jsonl``.  The second form runs one workload and prints,
as its last line, one JSON object with the metrics ``BENCHMARK.json``
names (end-to-end with ``--trace 0``, per-layer with ``--trace 1``).

Each workload runs in fresh interpreters, one after another:

* an *oracle* process: set-up, then the exact clique sets of every input
  graph (kept out of the timed process so its memory does not count);
* a *set-up* process: set-up only, a third sample of ``setup_s``;
* the *timed* process: set-up, then timed passes, each case checked
  against the oracle by count and maximum size, then the full digest of
  the last pass after peak RSS is read;
* with tracing, a *traced* process: set-up, untraced passes, and one pass
  under :class:`layertrace.LayerTracer`.

Set-up is interpreter start → imports, inputs built, one untimed warm-up
call done.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from workloads import WORKLOADS, passes_for, run_case

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"
HISTORY = HERE / "history.jsonl"
SPEC = ROOT / "BENCHMARK.json"

MIN_COVERAGE = 0.95
# A single-workload run must exit within 180 s; leave room to report.
SINGLE_RUN_BUDGET_S = 170.0
FULL_RUN_BUDGET_S = 3600.0

END_TO_END_UNITS = {
    "wall_s": "s",
    "cliques_per_s": "cliques/s",
    "resume_s": "s",
    "peak_rss_mb": "MiB",
    "worker_peak_rss_mb": "MiB",
    "setup_s": "s",
    "failed_frac": "ratio",
}

PER_LAYER_UNITS = {
    "graph.build_s": "s",
    "graph.csr_build_s": "s",
    "graph.induce_s": "s",
    "graph.levels": "count",
    "feasibility.cut_s": "s",
    "feasibility.hub_frac": "ratio",
    "blocks.build_s": "s",
    "blocks.count": "count",
    "blocks.redundancy": "ratio",
    "decision.select_s": "s",
    "block_analysis.block_s": "s",
    "block_analysis.max_block_s": "s",
    "mce.kernel_s": "s",
    "mce.cliques_emitted": "count",
    "cliquestore.index_s": "s",
    "filtering.merge_s": "s",
    "filtering.kept_frac": "ratio",
    "executor.map_s": "s",
    "executor.submit_s": "s",
    "executor.publish_s": "s",
    "executor.publish_bytes": "B",
    "executor.dispatch_bytes": "B",
    "executor.worker_busy_s": "s",
    "executor.idle_frac": "ratio",
    "executor.drain_s": "s",
    "executor.overhead_s": "s",
    "executor.retries": "count",
    "executor.worker_peak_rss_mb": "MiB",
    "runs.flush_s": "s",
    "runs.flush_bytes": "B",
    "runs.flushes": "count",
    "runs.replay_s": "s",
    "runs.replayed": "count",
    "driver.self_s": "s",
    "trace.coverage": "ratio",
    "trace.overhead_pct": "%",
}


class BenchError(RuntimeError):
    """A workload process failed, timed out, or printed no result."""


def clique_digest(cliques) -> str:
    """SHA-256 over the canonical clique set (sorted ``repr`` labels)."""
    hasher = hashlib.sha256()
    for clique in sorted(tuple(sorted(map(repr, clique))) for clique in cliques):
        for member in clique:
            hasher.update(member.encode())
            hasher.update(b"\x1f")
        hasher.update(b"\x1e")
    return hasher.hexdigest()


def summarize(values: list[float], unit: str) -> dict:
    """Median with quartiles and the sample count."""
    q1, _, q3 = (
        statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    )
    return {
        "value": statistics.median(values),
        "unit": unit,
        "q1": q1,
        "q3": q3,
        "n": len(values),
    }


# -- workload processes ------------------------------------------------------


def _setup(args):
    """Imports, inputs and the warm-up call; returns (inputs, setup_s)."""
    import repro.baselines.exact  # noqa: F401
    import repro.core.driver  # noqa: F401
    import repro.distributed.executor  # noqa: F401

    inputs = WORKLOADS[args.workload](args.seed, args.quick)
    spill = _spill_root("warmup")
    try:
        for case in inputs.warmup:
            run_case(case, inputs.graphs, spill)
    finally:
        shutil.rmtree(spill, ignore_errors=True)
    return inputs, time.monotonic() - args.spawned_at


def _spill_root(tag: str) -> Path:
    return RESULTS / f"spill-{os.getpid()}-{tag}"


def _run_pass(inputs, oracle: dict, tag: str, tracer=None) -> dict:
    """One pass over every case; results are kept for the caller's digest."""
    spill = _spill_root(tag)
    out = {"wall_s": 0.0, "resume_s": 0.0, "cliques": 0, "failed": 0, "results": []}
    try:
        for index, case in enumerate(inputs.cases):
            if tracer is not None:
                tracer.run = index
            start = time.perf_counter()
            try:
                result = run_case(case, inputs.graphs, spill)
            except Exception:
                out["failed"] += 1
                print(f"case {case.label} raised:", file=sys.stderr)
                traceback.print_exc()
                continue
            seconds = time.perf_counter() - start
            out["wall_s"] += seconds
            if case.mode == "resume":
                out["resume_s"] += seconds
            expected_count, expected_max, _ = oracle[case.graph]
            if (result.num_cliques, result.max_clique_size()) != (
                expected_count,
                expected_max,
            ):
                out["failed"] += 1
                print(
                    f"case {case.label}: {result.num_cliques} cliques, max "
                    f"{result.max_clique_size()}; oracle {expected_count}, "
                    f"max {expected_max}",
                    file=sys.stderr,
                )
            out["cliques"] += result.num_cliques
            out["results"].append((case, result))
    finally:
        shutil.rmtree(spill, ignore_errors=True)
    return out


def _digest_failures(results: list, oracle: dict) -> int:
    failures = 0
    for case, result in results:
        if clique_digest(result.cliques) != oracle[case.graph][2]:
            failures += 1
            print(f"case {case.label}: cliques differ from the oracle", file=sys.stderr)
    return failures


def _untraced_passes(inputs, oracle: dict, args) -> tuple[list[dict], dict]:
    """``--repeats`` passes, or as many as ``--seconds`` buys (``passes_for``).

    Each pass's results are dropped before the next pass starts; the last
    pass is returned whole for the digest check.
    """
    count = args.repeats
    if args.seconds is not None:
        count = passes_for(args.workload, args.seconds)
    passes: list[dict] = []
    last: dict = {}
    for index in range(count):
        last = {}
        last = _run_pass(inputs, oracle, f"pass{index}")
        passes.append({k: v for k, v in last.items() if k != "results"})
    return passes, last


def child_oracle(args) -> dict:
    from repro.baselines.exact import exact_mce

    inputs, setup_s = _setup(args)
    oracle = {}
    for key in dict.fromkeys(case.graph for case in inputs.cases):
        cliques = exact_mce(inputs.graphs[key]).cliques
        oracle[key] = [len(cliques), max(map(len, cliques)), clique_digest(cliques)]
    return {"setup_s": setup_s, "oracle": oracle}


def child_setup(args) -> dict:
    return {"setup_s": _setup(args)[1]}


def child_timed(args) -> dict:
    oracle = json.loads(args.oracle)
    inputs, setup_s = _setup(args)
    passes, last = _untraced_passes(inputs, oracle, args)
    # Peak RSS first: computing the digest decodes every clique.
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    worker_rss_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    failed = sum(p["failed"] for p in passes)
    failed += _digest_failures(last["results"], oracle)
    out = {
        "setup_s": setup_s,
        "passes": passes,
        "peak_rss_mb": peak_rss_mb,
        "attempted": len(passes) * len(inputs.cases),
        "failed": failed,
    }
    if any(case.mode in ("pipeline", "barrier") for case in inputs.cases):
        out["worker_peak_rss_mb"] = worker_rss_mb
    return out


def child_traced(args) -> dict:
    from layertrace import LayerTracer

    oracle = json.loads(args.oracle)
    inputs, _ = _setup(args)
    # Untraced passes set the overhead baseline; the traced pass below
    # gets the full digest check.
    passes = _untraced_passes(inputs, oracle, args)[0]
    failed = sum(p["failed"] for p in passes)
    tracer = LayerTracer()
    tracer.install()
    try:
        traced = _run_pass(inputs, oracle, "traced", tracer)
    finally:
        tracer.uninstall()
    failed += traced["failed"] + _digest_failures(traced["results"], oracle)
    metrics = tracer.metrics(traced["cliques"])
    untraced = statistics.median(p["wall_s"] for p in passes)
    metrics["trace.overhead_pct"] = 100.0 * (traced["wall_s"] - untraced) / untraced
    RESULTS.mkdir(exist_ok=True)
    trace_file = RESULTS / f"trace-{args.workload}.json"
    tracer.write_chrome_trace(trace_file)
    return {
        "per_layer": metrics,
        "trace_file": str(trace_file.relative_to(ROOT)),
        "attempted": (len(passes) + 1) * len(inputs.cases),
        "failed": failed,
    }


CHILDREN = {
    "oracle": child_oracle,
    "setup": child_setup,
    "timed": child_timed,
    "traced": child_traced,
}


# -- harness -----------------------------------------------------------------


def _run_child(role: str, args, deadline: float, oracle: dict | None = None) -> dict:
    """Run one workload process to completion and parse its JSON line."""
    command = [
        sys.executable,
        str(Path(__file__).resolve()),
        "--child",
        role,
        "--workload",
        args.workload,
        "--seed",
        str(args.seed),
        "--repeats",
        str(args.repeats),
    ]
    if args.seconds is not None:
        command += ["--seconds", str(args.seconds)]
    if args.quick:
        command.append("--quick")
    if oracle is not None:
        command += ["--oracle", json.dumps(oracle)]
    command += ["--spawned-at", repr(time.monotonic())]
    # Own process group, so pool workers die with the process on timeout.
    proc = subprocess.Popen(
        command, stdout=subprocess.PIPE, text=True, start_new_session=True
    )
    try:
        stdout, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        _kill_group(proc.pid)
        proc.communicate()
        raise BenchError(f"{args.workload}: {role} process ran past the time budget")
    finally:
        _kill_group(proc.pid)
    lines = stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{args.workload}: {role} process exited {proc.returncode}")
    return json.loads(lines[-1])


def _kill_group(pgid: int) -> None:
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def measure(args, deadline: float, trace: bool, oracle_run: dict | None = None) -> dict:
    """All processes of one workload: end-to-end or per-layer metrics."""
    if oracle_run is None:
        oracle_run = _run_child("oracle", args, deadline)
    oracle = oracle_run["oracle"]
    if trace:
        traced = _run_child("traced", args, deadline, oracle)
        per_layer = traced["per_layer"]
        return {
            "metrics": {
                name: summarize([value], PER_LAYER_UNITS[name])
                for name, value in per_layer.items()
            },
            "trace_file": traced["trace_file"],
            "attempted": traced["attempted"],
            "failed": traced["failed"],
            "oracle_run": oracle_run,
        }
    setup_run = _run_child("setup", args, deadline)
    timed = _run_child("timed", args, deadline, oracle)
    passes = timed["passes"]
    metrics = {
        "wall_s": [p["wall_s"] for p in passes],
        "cliques_per_s": [p["cliques"] / p["wall_s"] for p in passes],
        "peak_rss_mb": [timed["peak_rss_mb"]],
        "setup_s": [oracle_run["setup_s"], setup_run["setup_s"], timed["setup_s"]],
    }
    if any(p["resume_s"] for p in passes):
        metrics["resume_s"] = [p["resume_s"] for p in passes]
    if "worker_peak_rss_mb" in timed:
        metrics["worker_peak_rss_mb"] = [timed["worker_peak_rss_mb"]]
    metrics["failed_frac"] = [timed["failed"] / timed["attempted"]]
    return {
        "metrics": {
            name: summarize(values, END_TO_END_UNITS[name])
            for name, values in metrics.items()
        },
        "passes": len(passes),
        "cliques_per_pass": passes[0]["cliques"],
        "attempted": timed["attempted"],
        "failed": timed["failed"],
        "oracle_run": oracle_run,
    }


def nproc() -> int:
    count = len(os.sched_getaffinity(0))
    if count < 2:
        print(
            f"warning: {count} CPU available; the executor workloads use a "
            "two-worker pool and will measure contention",
            file=sys.stderr,
        )
    return count


def _git(*command: str) -> str:
    return subprocess.run(
        ["git", *command], cwd=ROOT, capture_output=True, text=True, check=True
    ).stdout


def git_state() -> tuple[str | None, bool | None]:
    """HEAD sha and whether the measured sources under src/ differ from it."""
    try:
        sha = _git("rev-parse", "HEAD").strip()
        dirty = bool(_git("status", "--porcelain", "--", "src").strip())
    except (OSError, subprocess.CalledProcessError):
        return None, None
    return sha, dirty


def print_metrics(title: str, metrics: dict) -> None:
    print(title)
    for name, stat in metrics.items():
        spread = ""
        if stat["n"] > 1:
            spread = f"  [q1 {stat['q1']:.6g}, q3 {stat['q3']:.6g}, n={stat['n']}]"
        print(f"  {name:28s} {stat['value']:14.6g} {stat['unit']}{spread}")


def run_one(args) -> int:
    """One workload, one kind of run; last line is the result JSON."""
    spec = json.loads(SPEC.read_text())
    nproc()
    deadline = time.monotonic() + SINGLE_RUN_BUDGET_S
    trace = bool(args.trace)
    result = measure(args, deadline, trace)
    names = [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]
    print_metrics(f"{args.workload} (seed {args.seed})", result["metrics"])
    print(
        json.dumps(
            {
                "correct": result["failed"] == 0,
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": {
                    name: {
                        "value": result["metrics"][name]["value"],
                        "unit": result["metrics"][name]["unit"],
                    }
                    for name in names
                },
            }
        )
    )
    return 0 if result["failed"] == 0 else 1


def run_all(args) -> int:
    """Every workload, end to end and (with ``--trace``) per layer."""
    cpus = nproc()
    deadline = time.monotonic() + FULL_RUN_BUDGET_S
    sha, dirty = git_state()
    report = {
        "sha": sha,
        "dirty": dirty,
        "seed": args.seed,
        "nproc": cpus,
        "repeats": args.repeats,
        "quick": args.quick,
        "workloads": {},
    }
    status = 0
    for name in WORKLOADS:
        args.workload = name
        timed = measure(args, deadline, trace=False)
        entry = {
            "end_to_end": timed["metrics"],
            "passes": timed["passes"],
            "cliques_per_pass": timed["cliques_per_pass"],
        }
        print_metrics(
            f"== {name}: {timed['passes']} passes, {timed['cliques_per_pass']} cliques "
            f"per pass, seed {args.seed}",
            timed["metrics"],
        )
        if timed["failed"]:
            status = 1
        if args.trace:
            traced = measure(args, deadline, trace=True, oracle_run=timed["oracle_run"])
            entry["per_layer"] = traced["metrics"]
            entry["trace_file"] = traced["trace_file"]
            title = f"-- {name} per layer (trace: {traced['trace_file']})"
            print_metrics(title, traced["metrics"])
            coverage = traced["metrics"]["trace.coverage"]["value"]
            if traced["failed"]:
                status = 1
            if coverage < MIN_COVERAGE:
                print(
                    f"FAIL: {name} trace covers {coverage:.3f} of the driver span",
                    file=sys.stderr,
                )
                status = 1
        report["workloads"][name] = entry
    RESULTS.mkdir(exist_ok=True)
    (RESULTS / "latest.json").write_text(json.dumps(report, indent=2) + "\n")
    if not args.quick:
        line = {k: report[k] for k in ("sha", "dirty", "seed", "nproc", "repeats")}
        line["workloads"] = {
            name: {
                metric: stat["value"]
                for section in ("end_to_end", "per_layer")
                for metric, stat in entry.get(section, {}).items()
            }
            for name, entry in report["workloads"].items()
        }
        with HISTORY.open("a") as history:
            history.write(json.dumps(line) + "\n")
    failed = [
        name
        for name, entry in report["workloads"].items()
        if entry["end_to_end"]["failed_frac"]["value"]
    ]
    if failed:
        print(f"FAIL: failed_frac > 0 on {', '.join(failed)}", file=sys.stderr)
    return status


def parse_args(argv=None):
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    add = parser.add_argument
    add("--workload", choices=list(WORKLOADS), help="run one workload only")
    add("--seed", type=int, default=0, help="workload seed (default 0)")
    add("--repeats", type=int, help="timed passes (default 3, 1 with --quick)")
    add("--seconds", type=float, help="size the pass count to this run length")
    add("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
        help="the per-layer trace run")
    add("--quick", action="store_true", help="reduced inputs, one pass")
    add("--child", choices=list(CHILDREN), help=argparse.SUPPRESS)
    add("--oracle", help=argparse.SUPPRESS)
    add("--spawned-at", type=float, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.repeats is None:
        args.repeats = 1 if args.quick else 3
    if args.repeats < 1 or (args.seconds is not None and args.seconds <= 0):
        parser.error("--repeats and --seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.child:
        sys.path.insert(0, str(SRC))
        print(json.dumps(CHILDREN[args.child](args)))
        return 0
    if not (SRC / "repro").is_dir():
        print(f"error: no program sources at {SRC / 'repro'}", file=sys.stderr)
        return 2
    try:
        return run_one(args) if args.workload else run_all(args)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
