"""Command-line interface: ``python -m repro <command>``.

The core commands cover the deployment loop of the paper's system:

* ``generate`` — build a synthetic network (ER / BA / WS / social, or a
  named data-set stand-in) and write it in the triple format;
* ``stats`` — report the block-classification parameters and degree
  profile of a triple file;
* ``enumerate`` — run the two-level decomposition and write the maximal
  cliques as JSON lines;
* ``compare`` — run the hub-oblivious fixed-block baseline next to the
  complete decomposition and report what the baseline loses;
* ``tune`` — replay a workload, harvest per-block (features → best
  combo) measurements, and retrain the selector tree
  (see ``docs/tuning.md``); ``--tree auto`` anywhere then picks up the
  installed result.
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import Sequence

from repro.analysis.degrees import degree_profile
from repro.analysis.report import format_table
from repro.baselines.naive_blocks import naive_block_mce
from repro.core.driver import find_max_cliques
from repro.decision.persistence import resolve_tree
from repro.errors import ReproError
from repro.graph.adjacency import Graph
from repro.graph.datasets import DATASET_NAMES, load_dataset
from repro.graph.generators import (
    barabasi_albert,
    erdos_renyi,
    social_network,
    watts_strogatz,
)
from repro.graph.io import read_triples, write_cliques, write_triples
from repro.graph.properties import GraphSummary


def build_parser() -> argparse.ArgumentParser:
    """Construct the top-level argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Hub-aware distributed maximal clique enumeration (EDBT 2016).",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    generate = commands.add_parser(
        "generate", help="generate a synthetic network as a triple file"
    )
    generate.add_argument(
        "--model",
        choices=["er", "ba", "ws", "social", "dataset"],
        required=True,
        help="random-graph family (or 'dataset' for a named stand-in)",
    )
    generate.add_argument("--nodes", type=int, default=1000)
    generate.add_argument("--seed", type=int, default=0)
    generate.add_argument(
        "--p", type=float, default=0.01, help="edge probability (er)"
    )
    generate.add_argument(
        "--attachment", type=int, default=3, help="edges per node (ba/social)"
    )
    generate.add_argument(
        "--k", type=int, default=4, help="ring degree (ws)"
    )
    generate.add_argument(
        "--beta", type=float, default=0.2, help="rewiring probability (ws)"
    )
    generate.add_argument(
        "--closure", type=float, default=0.5, help="triadic closure (social)"
    )
    generate.add_argument(
        "--plant",
        type=int,
        nargs="*",
        default=[],
        help="planted clique sizes (social)",
    )
    generate.add_argument(
        "--name",
        choices=list(DATASET_NAMES),
        help="stand-in name when --model dataset",
    )
    generate.add_argument("--out", required=True, help="output triple file")

    stats = commands.add_parser("stats", help="report graph statistics")
    stats.add_argument("--input", required=True, help="input triple file")

    enumerate_ = commands.add_parser(
        "enumerate", help="enumerate all maximal cliques"
    )
    enumerate_.add_argument("--input", required=True, help="input triple file")
    group = enumerate_.add_mutually_exclusive_group(required=True)
    group.add_argument("--m", type=int, help="block size")
    group.add_argument(
        "--ratio", type=float, help="block size as a fraction of max degree"
    )
    enumerate_.add_argument(
        "--output", help="write cliques as JSON lines to this path"
    )
    enumerate_.add_argument(
        "--tree",
        help=(
            "combo selector: a JSON tree file, 'paper' (the Figure 3 "
            "default), 'extended' (bitmatrix-aware), or 'auto' — the "
            "tree installed by 'repro tune' when present"
        ),
    )
    enumerate_.add_argument(
        "--fallback",
        choices=["exact", "raise"],
        default="exact",
        help="behaviour when m does not exceed the degeneracy",
    )
    enumerate_.add_argument(
        "--executor",
        choices=["serial", "process", "shared"],
        default="serial",
        help=(
            "block-analysis executor: in-process serial (default), a "
            "pickling process pool, or the zero-copy shared-memory pool"
        ),
    )
    enumerate_.add_argument(
        "--workers",
        type=int,
        default=None,
        help="worker processes for --executor process/shared (default: CPU count)",
    )
    enumerate_.add_argument(
        "--pipeline",
        action="store_true",
        help=(
            "stream blocks to workers while later levels are still being "
            "decomposed (requires --executor shared)"
        ),
    )
    enumerate_.add_argument(
        "--split",
        action="store_true",
        help=(
            "split straggler blocks into per-anchor subtasks dispatched "
            "through a work-stealing queue (requires --executor shared; "
            "works in barrier and --pipeline modes)"
        ),
    )
    enumerate_.add_argument(
        "--split-threshold",
        type=float,
        default=None,
        help=(
            "estimated-cost threshold above which a block is split "
            "(requires --split); default: adaptive, from the batch's "
            "cost distribution"
        ),
    )
    enumerate_.add_argument(
        "--batch-blocks",
        action="store_true",
        help=(
            "pack small same-shape blocks into buckets and run each bucket "
            "as one fused multi-block kernel (requires --executor serial "
            "or shared; see docs/batching.md)"
        ),
    )
    enumerate_.add_argument(
        "--batch-cutoff",
        type=int,
        default=None,
        help=(
            "node-count cutoff below which blocks are batched "
            "(requires --batch-blocks); default: adaptive, from the "
            "batch's size distribution"
        ),
    )
    enumerate_.add_argument(
        "--min-clique-size",
        type=int,
        default=0,
        help=(
            "only report cliques of at least this size; blocks and "
            "anchors whose clique upper bound falls below the floor are "
            "skipped outright (see docs/maximum.md)"
        ),
    )
    enumerate_.add_argument(
        "--spill-dir",
        default=None,
        help=(
            "make the run durable: append finished blocks to CRC-checked "
            "segment files in this directory and track progress in an "
            "atomically updated manifest (see docs/durability.md)"
        ),
    )
    enumerate_.add_argument(
        "--resume",
        action="store_true",
        help=(
            "continue a crashed (or finished) durable run from --spill-dir: "
            "completed blocks are replayed from the segments instead of "
            "re-analysed; the clique output is identical either way"
        ),
    )
    enumerate_.add_argument(
        "--no-retry",
        action="store_true",
        help=(
            "fail the whole run when a worker dies instead of re-running "
            "its block in the parent (--executor shared only); with "
            "--spill-dir the error names the segment holding the progress "
            "already made durable"
        ),
    )

    compare = commands.add_parser(
        "compare", help="two-level decomposition vs the hub-oblivious baseline"
    )
    compare.add_argument("--input", required=True, help="input triple file")
    compare.add_argument("--m", type=int, required=True, help="block size")

    communities = commands.add_parser(
        "communities", help="k-clique communities from the MCE output"
    )
    communities.add_argument("--input", required=True, help="input triple file")
    communities.add_argument("--m", type=int, required=True, help="block size")
    communities.add_argument(
        "--k", type=int, default=4, help="percolation parameter (default 4)"
    )
    communities.add_argument(
        "--top", type=int, default=10, help="communities to print (default 10)"
    )

    maximum = commands.add_parser(
        "maximum", help="find one maximum clique (branch and bound)"
    )
    maximum.add_argument("--input", required=True, help="input triple file")

    max_clique = commands.add_parser(
        "max-clique",
        help="find one maximum clique (bitmatrix branch and bound)",
    )
    max_clique.add_argument("--input", required=True, help="input triple file")
    max_clique.add_argument(
        "--workers",
        type=int,
        default=1,
        help=(
            "worker processes for the parallel search with a shared "
            "incumbent (default 1: solve in-process)"
        ),
    )
    max_clique.add_argument(
        "--lower-bound",
        type=int,
        default=0,
        help=(
            "required clique size: branches that cannot reach it are "
            "pruned from the start; errors if no such clique exists"
        ),
    )

    top_k = commands.add_parser(
        "top-k",
        help="the K largest maximal cliques via bound-driven pruning",
    )
    top_k.add_argument("--input", required=True, help="input triple file")
    top_k.add_argument("--m", type=int, required=True, help="block size")
    top_k.add_argument(
        "-k", type=int, default=10, dest="k",
        help="how many cliques to report (default 10)",
    )
    top_k.add_argument(
        "--tolerance",
        type=int,
        default=2,
        help=(
            "initial slack below the maximum clique size for the "
            "enumeration floor (floor = max clique size - tolerance); "
            "the floor is lowered automatically until K cliques surface"
        ),
    )

    plan = commands.add_parser(
        "plan", help="recommend a block size m for a network"
    )
    plan.add_argument("--input", required=True, help="input triple file")
    plan.add_argument(
        "--backend",
        choices=["lists", "bitsets", "matrix"],
        default="bitsets",
        help="representation whose memory footprint bounds the block",
    )
    plan.add_argument(
        "--ratio",
        type=float,
        default=0.5,
        help="efficiency target as a fraction of max degree (default 0.5)",
    )
    plan.add_argument(
        "--tree",
        help=(
            "plan with a combo selector instead of --backend: a JSON "
            "tree file, 'paper', 'extended', or 'auto' (the tree "
            "installed by 'repro tune'); the memory bound then uses the "
            "backend the selector picks for this network"
        ),
    )

    tune = commands.add_parser(
        "tune",
        help="retrain the combo selector from measured block executions",
    )
    tune.add_argument("--input", required=True, help="input triple file")
    tune_size = tune.add_mutually_exclusive_group(required=True)
    tune_size.add_argument("--m", type=int, help="block size")
    tune_size.add_argument(
        "--ratio", type=float, help="block size as a fraction of max degree"
    )
    tune.add_argument(
        "--out",
        default=None,
        help=(
            "destination for the tuned tree JSON (default: the 'auto' "
            "path, $REPRO_TUNED_TREE or ~/.repro/tuned_tree.json)"
        ),
    )
    tune.add_argument(
        "--sample",
        type=int,
        default=16,
        help=(
            "blocks to re-run under every combo for counterfactual "
            "labels; 0 means all blocks (default 16)"
        ),
    )
    tune.add_argument(
        "--repeats",
        type=int,
        default=1,
        help="timing repetitions per (block, combo); best is kept",
    )
    tune.add_argument("--seed", type=int, default=0, help="sampling seed")
    tune.add_argument(
        "--max-depth", type=int, default=6, help="tree depth cap (default 6)"
    )
    tune.add_argument(
        "--prune-alpha",
        type=float,
        default=None,
        help=(
            "cost-complexity penalty in seconds per extra leaf "
            "(default: 0.2%% of the corpus oracle time)"
        ),
    )
    tune.add_argument(
        "--spill-dir",
        default=None,
        help=(
            "also harvest rows from this durable run directory "
            "(segments written by enumerate --spill-dir)"
        ),
    )

    audit = commands.add_parser(
        "audit", help="re-verify a run from first principles"
    )
    audit.add_argument("--input", required=True, help="input triple file")
    audit.add_argument("--m", type=int, required=True, help="block size")
    audit.add_argument(
        "--skip-completeness",
        action="store_true",
        help="skip the (expensive) independent re-enumeration",
    )

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """Entry point; returns a process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "generate":
            return _cmd_generate(args)
        if args.command == "stats":
            return _cmd_stats(args)
        if args.command == "enumerate":
            return _cmd_enumerate(args)
        if args.command == "compare":
            return _cmd_compare(args)
        if args.command == "communities":
            return _cmd_communities(args)
        if args.command == "plan":
            return _cmd_plan(args)
        if args.command == "tune":
            return _cmd_tune(args)
        if args.command == "maximum":
            return _cmd_maximum(args)
        if args.command == "max-clique":
            return _cmd_max_clique(args)
        if args.command == "top-k":
            return _cmd_top_k(args)
        if args.command == "audit":
            return _cmd_audit(args)
    except (ReproError, OSError, ValueError) as exc:
        # ValueError covers generator parameter validation (e.g. an odd
        # Watts-Strogatz ring degree) so misuse prints a message rather
        # than a traceback.
        print(f"error: {exc}", file=sys.stderr)
        return 1
    raise AssertionError("unreachable: argparse enforces a known command")


def _cmd_generate(args: argparse.Namespace) -> int:
    graph = _generate_graph(args)
    records = write_triples(graph, args.out)
    print(
        f"wrote {graph.num_nodes} nodes / {records} edges "
        f"({args.model}) to {args.out}"
    )
    return 0


def _generate_graph(args: argparse.Namespace) -> Graph:
    if args.model == "er":
        return erdos_renyi(args.nodes, args.p, seed=args.seed)
    if args.model == "ba":
        return barabasi_albert(args.nodes, args.attachment, seed=args.seed)
    if args.model == "ws":
        return watts_strogatz(args.nodes, args.k, args.beta, seed=args.seed)
    if args.model == "social":
        return social_network(
            args.nodes,
            attachment=args.attachment,
            closure_probability=args.closure,
            planted_cliques=tuple(args.plant),
            seed=args.seed,
        )
    if args.name is None:
        raise ReproError("--model dataset requires --name")
    return load_dataset(args.name, seed=args.seed if args.seed else None)


def _cmd_stats(args: argparse.Namespace) -> int:
    graph = read_triples(args.input)
    summary = GraphSummary.of(graph)
    profile = degree_profile(args.input, graph)
    print(
        format_table(
            ["metric", "value"],
            [
                ["nodes", summary.num_nodes],
                ["edges", summary.num_edges],
                ["density", summary.density],
                ["degeneracy", summary.degeneracy],
                ["d*", summary.d_star],
                ["max degree", profile.max_degree],
                ["degree<=20 fraction", profile.low_degree_fraction],
                ["power-law alpha", profile.power_law_alpha],
            ],
            title=f"statistics of {args.input}",
        )
    )
    return 0


def _cmd_enumerate(args: argparse.Namespace) -> int:
    graph = read_triples(args.input)
    if args.m is not None:
        m = args.m
    else:
        if not 0.0 < args.ratio <= 1.0:
            raise ReproError("--ratio must be in (0, 1]")
        m = max(2, int(args.ratio * graph.max_degree()))
    tree = resolve_tree(args.tree)
    from repro.distributed.executor import SharedMemoryExecutor, build_executor

    if args.pipeline and args.executor != "shared":
        raise ReproError("--pipeline requires --executor shared")
    if args.split and args.executor != "shared":
        raise ReproError("--split requires --executor shared")
    if args.no_retry and args.executor != "shared":
        raise ReproError("--no-retry requires --executor shared")
    if args.batch_blocks and args.executor == "process":
        raise ReproError("--batch-blocks requires --executor serial or shared")
    if args.resume and not args.spill_dir:
        raise ReproError("--resume requires --spill-dir")
    executor = (
        None
        if args.executor == "serial"
        else build_executor(args.executor, max_workers=args.workers)
    )
    if args.no_retry:
        executor.retry_failed = False
    start = time.perf_counter()
    result = find_max_cliques(
        graph,
        m,
        tree=tree,
        fallback=args.fallback,
        executor=executor,
        pipeline=args.pipeline,
        split=args.split,
        split_threshold=args.split_threshold,
        batch_blocks=args.batch_blocks,
        batch_cutoff=args.batch_cutoff,
        min_clique_size=args.min_clique_size,
        spill_dir=args.spill_dir,
        resume=args.resume,
    )
    elapsed = time.perf_counter() - start
    print(
        f"{result.num_cliques} maximal cliques in {elapsed:.2f}s "
        f"(m={m}, {result.recursion_depth} recursion rounds, "
        f"max clique {result.max_clique_size()}, "
        f"{len(result.hub_cliques())} hub-only)"
    )
    if isinstance(executor, SharedMemoryExecutor) and executor.last_trace:
        trace = executor.last_trace
        if args.pipeline:
            for record in trace.levels:
                print(
                    f"level {record.level}: {record.num_blocks} blocks "
                    f"({record.num_feasible} feasible / {record.num_hubs} hubs), "
                    f"decomposed in {record.decompose_seconds:.3f}s, "
                    f"published {record.publish_bytes} bytes "
                    f"in {record.publish_seconds:.3f}s"
                )
            print(
                f"pipeline totals: {trace.total_decompose_seconds:.3f}s decomposition, "
                f"{trace.total_block_seconds:.3f}s serial-equivalent analysis, "
                f"peak worker RSS {trace.max_peak_rss_kb} kB"
            )
        else:
            print(
                f"shared-memory dispatch (last level): {trace.total_dispatch_bytes} "
                f"descriptor bytes, {trace.publish_bytes} published bytes, "
                f"peak worker RSS {trace.max_peak_rss_kb} kB"
            )
        if args.split:
            print(
                f"anchor-level splitting: {len(trace.splits)} blocks split "
                f"into {len(trace.subtasks)} fragments, "
                f"{trace.steal_count} stolen, "
                f"{len(trace.retried_subtasks)} subtasks retried"
            )
        if args.batch_blocks:
            print(
                f"batched dispatch: {trace.batched_block_count} blocks fused "
                f"into {len(trace.batches)} buckets "
                f"({sum(batch.sweeps for batch in trace.batches)} kernel sweeps)"
            )
    if result.pruning:
        pruning = result.pruning
        print(
            f"floor {pruning['min_clique_size']}: skipped "
            f"{pruning['blocks_skipped']}/{pruning['blocks_total']} blocks "
            f"and {pruning['anchors_skipped']} anchors"
        )
    if result.run_info:
        info = result.run_info
        print(
            f"durable run in {info['spill_dir']}: "
            f"{info['blocks_recorded']} blocks spilled "
            f"({info['flush_bytes']} bytes, {info['flush_seconds']:.3f}s), "
            f"{info['blocks_replayed']} replayed from "
            f"{len(info['segments'])} segment(s)"
        )
    if result.fallback_used:
        print("note: fell back to exact enumeration on the residual core")
    if args.output:
        written = write_cliques(result.cliques, args.output)
        print(f"wrote {written} cliques to {args.output}")
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    graph = read_triples(args.input)
    complete = find_max_cliques(graph, args.m)
    reference = set(complete.cliques)
    naive = naive_block_mce(graph, args.m)
    missed = naive.missed(reference)
    spurious = naive.spurious(graph)
    print(
        format_table(
            ["strategy", "#reported", "missed", "non-maximal"],
            [
                ["two-level (complete)", complete.num_cliques, 0, 0],
                ["naive fixed blocks", naive.num_cliques, len(missed), len(spurious)],
            ],
            title=f"completeness comparison at m={args.m}",
        )
    )
    return 0 if not missed and not spurious else 2


def _cmd_communities(args: argparse.Namespace) -> int:
    from repro.relaxed.percolation import community_membership, k_clique_communities

    graph = read_triples(args.input)
    result = find_max_cliques(graph, args.m)
    communities = k_clique_communities(result.cliques, args.k)
    membership = community_membership(communities)
    overlapping = sum(1 for indices in membership.values() if len(indices) > 1)
    print(
        f"{len(communities)} {args.k}-clique communities covering "
        f"{len(membership)}/{graph.num_nodes} nodes "
        f"({overlapping} nodes in several communities)"
    )
    for index, community in enumerate(communities[: args.top]):
        members = sorted(map(str, community))
        preview = ", ".join(members[:10])
        suffix = ", ..." if len(members) > 10 else ""
        print(f"  #{index}: {len(community)} members [{preview}{suffix}]")
    return 0


def _cmd_maximum(args: argparse.Namespace) -> int:
    from repro.mce.maximum import maximum_clique

    graph = read_triples(args.input)
    start = time.perf_counter()
    best = maximum_clique(graph)
    elapsed = time.perf_counter() - start
    members = ", ".join(sorted(map(str, best)))
    print(f"omega(G) = {len(best)} in {elapsed:.3f}s")
    print(f"one maximum clique: {{{members}}}")
    return 0


def _cmd_max_clique(args: argparse.Namespace) -> int:
    from repro.mce.maximum import maximum_clique

    graph = read_triples(args.input)
    start = time.perf_counter()
    if args.workers and args.workers > 1:
        from repro.distributed.executor import parallel_maximum_clique

        best = parallel_maximum_clique(
            graph, max_workers=args.workers, lower_bound=args.lower_bound
        )
        mode = f"{args.workers} workers"
    else:
        best = maximum_clique(graph, lower_bound=args.lower_bound)
        mode = "in-process"
    elapsed = time.perf_counter() - start
    members = ", ".join(sorted(map(str, best)))
    print(f"omega(G) = {len(best)} in {elapsed:.3f}s ({mode})")
    print(f"one maximum clique: {{{members}}}")
    return 0


def _cmd_top_k(args: argparse.Namespace) -> int:
    from repro.mce.maximum import maximum_clique

    if args.k <= 0:
        raise ReproError("-k must be positive")
    if args.tolerance < 0:
        raise ReproError("--tolerance must be non-negative")
    graph = read_triples(args.input)
    start = time.perf_counter()
    k_star = len(maximum_clique(graph))
    bound_seconds = time.perf_counter() - start
    print(f"omega(G) = {k_star} in {bound_seconds:.3f}s")
    # Enumerate with a floor just below omega(G); if fewer than K cliques
    # survive, lower the floor and re-run until enough surface (or the
    # floor bottoms out at 1, which is an unfloored enumeration).
    floor = max(1, k_star - args.tolerance)
    while True:
        result = find_max_cliques(graph, args.m, min_clique_size=floor)
        if result.num_cliques >= args.k or floor <= 1:
            break
        floor = max(1, floor - 1)
    pruning = result.pruning or {}
    print(
        f"floor {floor}: {result.num_cliques} cliques, "
        f"skipped {pruning.get('blocks_skipped', 0)}/"
        f"{pruning.get('blocks_total', 0)} blocks and "
        f"{pruning.get('anchors_skipped', 0)} anchors"
    )
    for index, clique in enumerate(result.largest(args.k)):
        members = ", ".join(sorted(map(str, clique)))
        print(f"  #{index}: {len(clique)} members {{{members}}}")
    return 0


def _cmd_plan(args: argparse.Namespace) -> int:
    from repro.core.planner import recommend_block_size

    graph = read_triples(args.input)
    plan = recommend_block_size(
        graph, backend=args.backend, ratio=args.ratio, tree=args.tree
    )
    rows = [
        ["recommended m", plan.m],
        ["m / max degree", plan.ratio],
        ["completeness lower bound", plan.completeness_lower_bound],
        ["memory upper bound", plan.memory_upper_bound],
        ["max degree", plan.max_degree],
    ]
    if plan.selected_combo:
        rows.append(["selected combo", plan.selected_combo])
    print(
        format_table(
            ["quantity", "value"],
            rows,
            title=f"block-size plan for {args.input}",
        )
    )
    print(f"rationale: {plan.rationale}")
    return 0


def _cmd_tune(args: argparse.Namespace) -> int:
    from repro.decision.harvest import harvest_workload, rows_from_run_dir
    from repro.decision.persistence import default_tree_path, save_tree
    from repro.decision.training import (
        block_selection_overhead,
        train_from_rows,
    )
    from repro.decision.tree import num_leaves

    graph = read_triples(args.input)
    if args.m is not None:
        m = args.m
    else:
        if not 0.0 < args.ratio <= 1.0:
            raise ReproError("--ratio must be in (0, 1]")
        m = max(2, int(args.ratio * graph.max_degree()))
    start = time.perf_counter()
    harvest = harvest_workload(
        graph, m, sample=args.sample, repeats=args.repeats, seed=args.seed
    )
    rows = list(harvest.rows)
    if args.spill_dir:
        rows.extend(rows_from_run_dir(args.spill_dir))
    result = train_from_rows(
        rows, max_depth=args.max_depth, prune_alpha=args.prune_alpha
    )
    harvest_seconds = time.perf_counter() - start
    overhead = block_selection_overhead(result.samples, result.tree)
    destination = args.out if args.out else default_tree_path()
    save_tree(
        result.tree,
        destination,
        metadata={
            "trained_by": "repro tune",
            "source": args.input,
            "m": m,
            "rows": len(rows),
            "blocks": len(result.samples),
            "corpus_fingerprint": result.fingerprint,
            "win_counts": result.win_counts,
            "training_accuracy": result.training_accuracy,
        },
    )
    oracle = sum(sample.timings[sample.best] for sample in result.samples)
    tuned = result.total_time()
    fraction = overhead / tuned if tuned > 0 else 0.0
    print(
        f"harvested {len(rows)} rows "
        f"({harvest.live_rows} live, "
        f"{harvest.counterfactual_rows} counterfactual) from "
        f"{harvest.blocks_sampled}/{harvest.blocks_total} blocks "
        f"in {harvest_seconds:.2f}s"
    )
    print(
        f"trained on {len(result.samples)} labelled blocks: "
        f"{num_leaves(result.tree)} leaves "
        f"(pruned from {result.unpruned_leaves}), "
        f"accuracy {result.training_accuracy:.2f}"
    )
    for label, count in sorted(result.win_counts.items()):
        print(f"  {label}: wins {count}")
    print(
        f"corpus time under tuned tree {tuned:.4f}s "
        f"(oracle {oracle:.4f}s, regret {tuned - oracle:.4f}s); "
        f"selection overhead {fraction:.3%}"
    )
    print(f"wrote tuned tree to {destination}")
    print("deploy with: repro enumerate --tree auto (or --tree <path>)")
    return 0


def _cmd_audit(args: argparse.Namespace) -> int:
    from repro.core.audit import audit_result

    graph = read_triples(args.input)
    result = find_max_cliques(graph, args.m)
    report = audit_result(
        graph, result, check_completeness=not args.skip_completeness
    )
    print(
        f"audited {report.checked_cliques} cliques "
        f"(completeness {'checked' if report.completeness_checked else 'skipped'})"
    )
    if report.ok:
        print("audit clean")
        return 0
    for problem in report.problems:
        print(f"problem: {problem}")
    return 2


if __name__ == "__main__":
    sys.exit(main())
