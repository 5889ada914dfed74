"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``generate`` — write a synthetic graph (or dataset stand-in) as a text
  edge list.
* ``dfs`` — semi-external DFS over a text edge list; prints cost metrics
  and optionally the DFS order.
* ``bfs`` — semi-external BFS; prints pass/level metrics and optionally
  the per-node levels and parents.
* ``toposort`` — semi-external topological sort of a DAG edge list.
* ``scc`` — semi-external strongly connected components (Kosaraju).
* ``bench`` — run one paper experiment and print its figure tables.
* ``publish`` — run a DFS and seal it into a versioned artifact store.
* ``serve`` — serve order/ancestor/toposort/SCC/reachability queries
  over published artifacts via HTTP.
* ``query`` — answer one query from a published artifact, no server.

Examples::

    python -m repro generate --kind power-law --nodes 20000 --degree 5 \\
        --output graph.txt
    python -m repro dfs --input graph.txt --algorithm divide-td \\
        --memory-ratio 0.4 --verify
    python -m repro bench --experiment exp2:power-law
    python -m repro publish --input graph.txt --store ./artifacts \\
        --name web --sources 0
    python -m repro serve --store ./artifacts --port 8080
"""

from __future__ import annotations

import argparse
import json
import signal
import sys
from typing import List, Optional

from . import bench as bench_mod
from .api import ALGORITHMS, semi_external_dfs
from .apps import sealed_topological_order, strongly_connected_components
from .core import verify_dfs_tree
from .errors import ReproError
from .graph import all_datasets, load_edge_list, write_edge_list
from .graph.generators import power_law_graph_edges, random_graph_edges
from .obs import JSONLSink, Tracer, render_profile
from .options import RunOptions
from .serve import (
    ArtifactStore,
    QueryEngine,
    ReproServer,
    ServeConfig,
    seal_result,
)
from .storage import BlockDevice, FaultPlan
from .storage.faults import FAULT_SEED_ENV_VAR


def _add_common_graph_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--input", required=True, help="text edge list (u v per line)")
    parser.add_argument(
        "--nodes", type=int, default=-1,
        help="node count (default: inferred as max id + 1)",
    )
    parser.add_argument(
        "--memory", type=int, default=0,
        help="memory budget M in elements (>= 3|V|)",
    )
    parser.add_argument(
        "--memory-ratio", type=float, default=0.0,
        help="set M = 3|V| + ratio * |E| instead of --memory",
    )
    parser.add_argument(
        "--block-size", type=int, default=4096, help="elements per block (B)"
    )
    parser.add_argument(
        "--kernel", choices=["auto", "python", "numpy"], default=None,
        help="columnar kernel backend (default: $REPRO_KERNEL, then auto)",
    )
    parser.add_argument(
        "--block-codec", choices=["fixed32", "delta-varint"], default=None,
        help="edge-block payload codec for files written during the run "
             "(default: $REPRO_BLOCK_CODEC, then fixed32)",
    )
    parser.add_argument(
        "--fault-seed", type=int, default=None,
        help="inject seeded transient disk faults (replayable; default: "
             f"${FAULT_SEED_ENV_VAR} when set, else no faults)",
    )
    parser.add_argument(
        "--fault-rate", type=float, default=0.02,
        help="per-block probability of a transient fault (with --fault-seed)",
    )
    parser.add_argument(
        "--fault-max", type=int, default=None,
        help="total fault budget for the run (default: unlimited)",
    )


def _resolve_fault_plan(args: argparse.Namespace):
    """Build the device's FaultPlan from --fault-* flags / $REPRO_FAULT_SEED."""
    if args.fault_seed is not None:
        return FaultPlan.transient(
            args.fault_seed, rate=args.fault_rate, max_faults=args.fault_max
        )
    return FaultPlan.from_env(rate=args.fault_rate, max_faults=args.fault_max)


def _resolve_memory(args: argparse.Namespace, node_count: int, edge_count: int) -> int:
    if args.memory:
        return args.memory
    ratio = args.memory_ratio if args.memory_ratio > 0 else 0.25
    return 3 * node_count + int(ratio * edge_count)


def _command_generate(args: argparse.Namespace) -> int:
    datasets = all_datasets(scale=args.scale)
    if args.kind == "random":
        edges = random_graph_edges(args.nodes, args.degree, seed=args.seed)
        header = f"random graph n={args.nodes} D={args.degree} seed={args.seed}"
    elif args.kind == "power-law":
        edges = power_law_graph_edges(
            args.nodes, args.degree,
            attractiveness=args.power_law_ness * args.degree, seed=args.seed,
        )
        header = (
            f"power-law graph n={args.nodes} D={args.degree} "
            f"|A|/D={args.power_law_ness} seed={args.seed}"
        )
    elif args.kind in datasets:
        spec = datasets[args.kind]
        edges = spec.edges()
        header = f"{spec.name} stand-in n={spec.node_count} scale={args.scale}"
    else:
        known = ["random", "power-law"] + list(datasets)
        print(f"unknown kind {args.kind!r}; known: {', '.join(known)}", file=sys.stderr)
        return 2
    count = write_edge_list(args.output, edges, header=header)
    print(f"wrote {count} edges to {args.output}")
    return 0


def _command_dfs(args: argparse.Namespace) -> int:
    fault_plan = _resolve_fault_plan(args)
    tracer: Optional[Tracer] = None
    trace_sink: Optional[JSONLSink] = None
    if args.trace_out or args.profile:
        tracer = Tracer()
        if args.trace_out:
            trace_sink = JSONLSink(args.trace_out)
            tracer.attach(trace_sink)
    with BlockDevice(
        block_elements=args.block_size, kernel=args.kernel,
        fault_plan=fault_plan, block_codec=args.block_codec,
    ) as device:
        graph = load_edge_list(args.input, device, node_count=args.nodes)
        memory = _resolve_memory(args, graph.node_count, graph.edge_count)
        print(
            f"graph: n={graph.node_count} m={graph.edge_count} "
            f"blocks={graph.edge_file.block_count}  M={memory}"
        )
        try:
            result = semi_external_dfs(
                graph, memory, algorithm=args.algorithm, start=args.start,
                options=RunOptions(tracer=tracer),
            )
        finally:
            if trace_sink is not None:
                trace_sink.close()
        print(
            f"{result.algorithm}: time={result.elapsed_seconds:.2f}s "
            f"io={result.io.total} (r={result.io.reads} w={result.io.writes}) "
            f"passes={result.passes} "
            f"divisions={getattr(result, 'divisions', 0)} "
            f"depth={getattr(result, 'max_depth', 0)} kernel={result.kernel} "
            f"retries={result.retries} faults={result.faults}"
        )
        if trace_sink is not None:
            print(
                f"trace: {trace_sink.events_written} span events written "
                f"to {args.trace_out}"
            )
        if args.profile and tracer is not None:
            print(render_profile(result.events, tracer.metrics))
        if fault_plan is not None:
            print(
                f"fault plan: seed={fault_plan.seed} "
                f"rate={fault_plan.read_error_rate} "
                f"injected={device.faults.injected if device.faults else 0} "
                f"checksum_failures={result.io.checksum_failures}"
            )
        if args.verify:
            report = verify_dfs_tree(graph, result.tree)
            status = "VALID" if report.ok else "INVALID"
            print(
                f"verification: {status} "
                f"(forward-cross edges: {report.forward_cross_count})"
            )
            if not report.ok:
                return 1
        if args.output:
            # repro: allow[SEX101] user-facing result text, not modelled block I/O
            with open(args.output, "w", encoding="utf-8") as handle:
                for node in result.order:
                    handle.write(f"{node}\n")
            print(f"DFS order written to {args.output}")
        else:
            preview = " ".join(map(str, result.order[:12]))
            print(f"DFS order: {preview} ...")
    return 0


def _command_bfs(args: argparse.Namespace) -> int:
    """Semi-external BFS: levels summary, optional node/level/parent dump."""
    fault_plan = _resolve_fault_plan(args)
    tracer: Optional[Tracer] = None
    trace_sink: Optional[JSONLSink] = None
    if args.trace_out or args.profile:
        tracer = Tracer()
        if args.trace_out:
            trace_sink = JSONLSink(args.trace_out)
            tracer.attach(trace_sink)
    with BlockDevice(
        block_elements=args.block_size, kernel=args.kernel,
        fault_plan=fault_plan, block_codec=args.block_codec,
    ) as device:
        graph = load_edge_list(args.input, device, node_count=args.nodes)
        memory = _resolve_memory(args, graph.node_count, graph.edge_count)
        print(
            f"graph: n={graph.node_count} m={graph.edge_count} "
            f"blocks={graph.edge_file.block_count}  M={memory}"
        )
        try:
            result = semi_external_dfs(
                graph, memory, algorithm="bfs", start=args.start,
                options=RunOptions(tracer=tracer),
            )
        finally:
            if trace_sink is not None:
                trace_sink.close()
        print(
            f"bfs: time={result.elapsed_seconds:.2f}s "
            f"io={result.io.total} (r={result.io.reads} w={result.io.writes}) "
            f"passes={result.passes} depth={result.depth} "
            f"reached={result.reached_count}/{graph.node_count} "
            f"kernel={result.kernel} "
            f"retries={result.retries} faults={result.faults}"
        )
        if trace_sink is not None:
            print(
                f"trace: {trace_sink.events_written} span events written "
                f"to {args.trace_out}"
            )
        if args.profile and tracer is not None:
            print(render_profile(result.events, tracer.metrics))
        if args.output:
            # repro: allow[SEX101] user-facing result text, not modelled block I/O
            with open(args.output, "w", encoding="utf-8") as handle:
                for node, level in enumerate(result.levels):
                    parent = result.tree.parent.get(node)
                    if level is None or parent == result.tree.root:
                        parent = -1
                    shown = -1 if level is None else level
                    handle.write(f"{node} {shown} {parent}\n")
            print(f"BFS levels written to {args.output}")
        else:
            preview = " ".join(
                "-" if level is None else str(level)
                for level in result.levels[:12]
            )
            print(f"levels: {preview} ...")
    return 0


def _command_compare(args: argparse.Namespace) -> int:
    """Run every registered algorithm on one edge list and compare costs."""
    from .errors import ConvergenceError

    # Enumerate the registry (canonical names, once per algorithm), so
    # third-party algorithms registered via register_algorithm() are
    # swept too; slow entries join only on request.
    algorithms = [
        spec.name
        for spec in ALGORITHMS.specs()
        if not spec.slow or args.include_edge_by_edge
    ]
    with BlockDevice(
        block_elements=args.block_size, kernel=args.kernel,
        block_codec=args.block_codec,
    ) as device:
        graph = load_edge_list(args.input, device, node_count=args.nodes)
        memory = _resolve_memory(args, graph.node_count, graph.edge_count)
        print(
            f"graph: n={graph.node_count} m={graph.edge_count}  M={memory}  "
            f"timeout={args.timeout}s"
        )
        header = f"{'algorithm':14s} {'time':>8s} {'I/Os':>8s} {'passes':>6s} {'div':>4s}"
        print(header)
        print("-" * len(header))
        for algorithm in algorithms:
            try:
                result = semi_external_dfs(
                    graph, memory, algorithm=algorithm,
                    options=RunOptions(deadline_seconds=args.timeout),
                )
            except ConvergenceError:
                print(f"{algorithm:14s} {'DNF':>8s}")
                continue
            print(
                f"{algorithm:14s} {result.elapsed_seconds:7.2f}s "
                f"{result.io.total:8d} {result.passes:6d} "
                f"{getattr(result, 'divisions', 0):4d}"
            )
    return 0


def _command_toposort(args: argparse.Namespace) -> int:
    with BlockDevice(
        block_elements=args.block_size, kernel=args.kernel,
        block_codec=args.block_codec,
    ) as device:
        graph = load_edge_list(args.input, device, node_count=args.nodes)
        memory = _resolve_memory(args, graph.node_count, graph.edge_count)
        order = sealed_topological_order(graph, memory, algorithm=args.algorithm)
        if args.output:
            # repro: allow[SEX101] user-facing result text, not modelled block I/O
            with open(args.output, "w", encoding="utf-8") as handle:
                for node in order:
                    handle.write(f"{node}\n")
            print(f"topological order written to {args.output}")
        else:
            print(" ".join(map(str, order[:20])), "..." if len(order) > 20 else "")
    return 0


def _command_scc(args: argparse.Namespace) -> int:
    with BlockDevice(
        block_elements=args.block_size, kernel=args.kernel,
        block_codec=args.block_codec,
    ) as device:
        graph = load_edge_list(args.input, device, node_count=args.nodes)
        memory = _resolve_memory(args, graph.node_count, graph.edge_count)
        components = strongly_connected_components(graph, memory)
        print(f"{len(components)} strongly connected components")
        for index, component in enumerate(components[: args.top]):
            share = len(component) / graph.node_count
            print(f"  #{index + 1}: {len(component)} nodes ({share:.1%})")
    return 0


_EXPERIMENTS = {
    "exp1:webspam-uk2007": (lambda: bench_mod.exp1_real_dataset("webspam-uk2007"), "|E| kept"),
    "exp1:twitter-2010": (lambda: bench_mod.exp1_real_dataset("twitter-2010"), "|E| kept"),
    "exp1:wikilink": (lambda: bench_mod.exp1_real_dataset("wikilink"), "|E| kept"),
    "exp1:arabic-2005": (lambda: bench_mod.exp1_real_dataset("arabic-2005"), "|E| kept"),
    "exp2:power-law": (lambda: bench_mod.exp2_vary_nodes("power-law"), "|V|"),
    "exp2:random": (lambda: bench_mod.exp2_vary_nodes("random"), "|V|"),
    "exp3:power-law": (lambda: bench_mod.exp3_vary_degree("power-law"), "degree"),
    "exp3:random": (lambda: bench_mod.exp3_vary_degree("random"), "degree"),
    "exp4:power-law": (lambda: bench_mod.exp4_vary_memory("power-law"), "memory"),
    "exp4:random": (lambda: bench_mod.exp4_vary_memory("random"), "memory"),
    "exp5": (bench_mod.exp5_power_law_ness, "|A|/D"),
    "exp6": (bench_mod.exp6_start_node, "degree partition"),
}


def _command_planarity(args: argparse.Namespace) -> int:
    from .apps import check_planarity

    with BlockDevice(
        block_elements=args.block_size, kernel=args.kernel,
        block_codec=args.block_codec,
    ) as device:
        graph = load_edge_list(args.input, device, node_count=args.nodes)
        report = check_planarity(graph)
        verdict = "planar" if report.planar else "NOT planar"
        mode = "decided by the left-right test" if report.loaded else (
            "decided by the Euler bound without loading the graph"
        )
        print(f"{verdict}: {report.reason}")
        print(f"simple undirected edges: {report.simple_edge_count} ({mode})")
    return 0 if report.planar else 3


def _command_publish(args: argparse.Namespace) -> int:
    """Run a semi-external DFS and seal it into the artifact store."""
    sources = (
        [int(part) for part in args.sources.split(",") if part != ""]
        if args.sources else []
    )
    with BlockDevice(
        block_elements=args.block_size, kernel=args.kernel,
        block_codec=args.block_codec,
    ) as device:
        graph = load_edge_list(args.input, device, node_count=args.nodes)
        memory = _resolve_memory(args, graph.node_count, graph.edge_count)
        options = RunOptions()
        result = semi_external_dfs(
            graph, memory, algorithm=args.algorithm, start=args.start,
            options=options,
        )
        artifact = seal_result(
            graph, result, memory=memory, sources=sources,
            with_scc=not args.no_scc,
            graph_digest=not args.no_digest,
            options=options,
        )
        with ArtifactStore(args.store) as store:
            ref = store.publish(artifact, args.name)
        print(
            f"published {ref} ({ref.path}) "
            f"nodes={graph.node_count} edges={graph.edge_count} "
            f"algorithm={result.algorithm}"
        )
    return 0


def _command_serve(args: argparse.Namespace) -> int:
    """Serve queries over published artifacts until interrupted."""
    config = ServeConfig(
        store_root=args.store,
        host=args.host,
        port=args.port,
        deadline_seconds=args.deadline_ms / 1000.0,
        trace_path=args.trace_out,
    )
    server = ReproServer(config)
    host, port = server.server_address[0], server.server_address[1]
    names = server.store.names()
    print(
        f"serving {len(names)} artifact(s) from {args.store} "
        f"on http://{host}:{port} (Ctrl-C to stop)"
    )

    def _stop(signum: int, frame: object) -> None:
        # SIGTERM gets the same clean-shutdown path as Ctrl-C; background
        # shells commonly leave SIGINT ignored, so supervisors and CI
        # send TERM
        raise KeyboardInterrupt

    signal.signal(signal.SIGTERM, _stop)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        print("shutting down")
    finally:
        server.close()
    return 0


def _command_query(args: argparse.Namespace) -> int:
    """Answer one query from a published artifact (no server)."""
    params = {}
    for item in args.param or []:
        key, sep, value = item.partition("=")
        if not sep:
            raise ValueError(f"--param needs key=value, got {item!r}")
        params[key] = value
    with ArtifactStore(args.store) as store:
        # repro: allow[SEX104] ArtifactStore.open resolves a sealed artifact by name; its payload reads flow through device.read_block
        engine = QueryEngine(store.open(args.artifact))
        answer = engine.execute(args.kind, params)
    print(json.dumps(answer, indent=2, sort_keys=True))
    return 0


def _command_bench(args: argparse.Namespace) -> int:
    try:
        runner, x_label = _EXPERIMENTS[args.experiment]
    except KeyError:
        print(
            f"unknown experiment {args.experiment!r}; "
            f"known: {', '.join(sorted(_EXPERIMENTS))}",
            file=sys.stderr,
        )
        return 2
    rows = runner()
    print(bench_mod.render_experiment(args.experiment, rows, x_label))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Semi-external, I/O-efficient depth-first search (SIGMOD'15).",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    generate = commands.add_parser("generate", help="write a synthetic edge list")
    generate.add_argument("--kind", default="power-law")
    generate.add_argument("--nodes", type=int, default=10_000)
    generate.add_argument("--degree", type=float, default=5.0)
    generate.add_argument("--power-law-ness", type=float, default=1.0)
    generate.add_argument("--scale", type=float, default=1.0,
                          help="dataset stand-in scale factor")
    generate.add_argument("--seed", type=int, default=42)
    generate.add_argument("--output", required=True)
    generate.set_defaults(handler=_command_generate)

    dfs = commands.add_parser("dfs", help="semi-external DFS")
    _add_common_graph_arguments(dfs)
    dfs.add_argument("--algorithm", default="divide-td",
                     choices=ALGORITHMS.names())
    dfs.add_argument("--start", type=int, default=None)
    dfs.add_argument("--verify", action="store_true",
                     help="scan the edge file to certify the DFS-Tree")
    dfs.add_argument("--output", help="write the DFS order here")
    dfs.add_argument("--trace-out",
                     help="write span events as JSON-Lines to this file")
    dfs.add_argument("--profile", action="store_true",
                     help="print a per-phase time/I/O profile after the run")
    dfs.set_defaults(handler=_command_dfs)

    bfs = commands.add_parser(
        "bfs", help="semi-external BFS (levels + sealed BFS-tree artifact)"
    )
    _add_common_graph_arguments(bfs)
    bfs.add_argument("--start", type=int, default=None,
                     help="BFS source node (default 0)")
    bfs.add_argument("--output",
                     help="write 'node level parent' lines here (-1 = none)")
    bfs.add_argument("--trace-out",
                     help="write span events as JSON-Lines to this file")
    bfs.add_argument("--profile", action="store_true",
                     help="print a per-phase time/I/O profile after the run")
    bfs.set_defaults(handler=_command_bfs)

    compare = commands.add_parser(
        "compare", help="run all algorithms on one graph and compare costs"
    )
    _add_common_graph_arguments(compare)
    compare.add_argument("--timeout", type=float, default=60.0,
                         help="per-algorithm wall-clock limit (DNF beyond)")
    compare.add_argument("--include-edge-by-edge", action="store_true",
                         help="also run the (slow) per-edge baseline")
    compare.set_defaults(handler=_command_compare)

    toposort = commands.add_parser("toposort", help="semi-external topological sort")
    _add_common_graph_arguments(toposort)
    toposort.add_argument("--algorithm", default="divide-td",
                          choices=ALGORITHMS.names())
    toposort.add_argument("--output")
    toposort.set_defaults(handler=_command_toposort)

    scc = commands.add_parser("scc", help="strongly connected components")
    _add_common_graph_arguments(scc)
    scc.add_argument("--top", type=int, default=5,
                     help="how many largest components to print")
    scc.set_defaults(handler=_command_scc)

    planarity = commands.add_parser(
        "planarity", help="planar graph test (exit code 3 when not planar)"
    )
    _add_common_graph_arguments(planarity)
    planarity.set_defaults(handler=_command_planarity)

    bench = commands.add_parser("bench", help="run one paper experiment")
    bench.add_argument("--experiment", required=True)
    bench.set_defaults(handler=_command_bench)

    publish = commands.add_parser(
        "publish",
        help="run a DFS and seal it into a versioned artifact store",
    )
    _add_common_graph_arguments(publish)
    publish.add_argument("--store", required=True,
                         help="artifact store root directory")
    publish.add_argument("--name", required=True,
                         help="artifact name (re-publishing bumps the version)")
    publish.add_argument("--algorithm", default="divide-td",
                         choices=ALGORITHMS.names())
    publish.add_argument("--start", type=int, default=None)
    publish.add_argument(
        "--sources", default="",
        help="comma-separated node ids to pin exact reachability bitsets for",
    )
    publish.add_argument(
        "--no-scc", action="store_true",
        help="skip sealing SCC membership columns",
    )
    publish.add_argument(
        "--no-digest", action="store_true",
        help="skip the graph CRC32 digest (saves one edge scan)",
    )
    publish.set_defaults(handler=_command_publish)

    serve = commands.add_parser(
        "serve", help="serve queries over published artifacts via HTTP"
    )
    serve.add_argument("--store", required=True,
                       help="artifact store root directory")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8080,
                       help="TCP port (0 picks a free one)")
    serve.add_argument("--deadline-ms", type=int, default=2000,
                       help="default per-request deadline")
    serve.add_argument("--trace-out", default=None,
                       help="write one JSONL span event per request here")
    serve.set_defaults(handler=_command_serve)

    query = commands.add_parser(
        "query", help="answer one query from a published artifact"
    )
    query.add_argument("--store", required=True,
                       help="artifact store root directory")
    query.add_argument("--artifact", required=True,
                       help="artifact reference: name or name@vN")
    query.add_argument("--kind", required=True,
                       help="query kind (order, ancestor, toposort, scc, ...)")
    query.add_argument("--param", action="append", default=[],
                       metavar="KEY=VALUE",
                       help="query parameter (repeatable)")
    query.set_defaults(handler=_command_query)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except (ReproError, ValueError) as exc:
        # ValueError covers configuration mistakes surfaced by the typed
        # options layer (e.g. an option the algorithm does not support);
        # both deserve a clean error line, not a traceback.
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
