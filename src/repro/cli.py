"""Command-line interface: ``python -m repro <command> ...``.

Commands:

* ``stats``      — Table-4-style statistics for a dataset or edge list;
* ``decompose``  — coreness (and optional shell-layer) listing;
* ``anchor``     — run GAC / a heuristic / OLAK and print the anchors;
* ``cascade``    — simulate a departure cascade with optional anchors;
* ``datasets``   — list the built-in replica datasets;
* ``faults``     — print the registered fault-injection site catalog.

Long GAC/OLAK runs survive kills: ``anchor --checkpoint PATH`` writes a
round-granular snapshot (``--checkpoint-every N`` thins it) and
``anchor --resume PATH`` continues byte-identically from the last round
boundary. ``--faults SPEC`` arms the deterministic fault-injection
layer (see ``docs/fault-injection.md``).

Graphs come from either ``--dataset <name>`` (a built-in replica) or
``--edges <path>`` (a SNAP-style edge list). ``decompose`` and
``anchor`` accept ``--profile`` to run traced and print the
:mod:`repro.obs` phase profile and work counters afterwards
(``--trace-out PATH`` additionally writes the Chrome trace artifact).
"""

from __future__ import annotations

import argparse
import sys

from repro import faults as _faults  # lint: fault-ok CLI arms/lists the catalog
from repro import obs
from repro.analysis.stats import graph_stats
from repro.anchors.gac import gac
from repro.anchors.heuristics import HEURISTICS
from repro.cascade import departure_cascade
from repro.core.decomposition import core_decomposition, coreness_gain, peel_decomposition
from repro.datasets import registry
from repro.errors import BudgetError, CheckpointError, DatasetError, ParseError
from repro.graphs.graph import Graph
from repro.graphs.io import read_edge_list
from repro.olak.olak import olak


def _load_graph(args: argparse.Namespace) -> Graph:
    if args.dataset:
        return registry.load(args.dataset)
    if args.edges:
        return read_edge_list(args.edges)
    raise SystemExit("error: provide --dataset NAME or --edges PATH")


def _add_graph_source(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--dataset", help="built-in replica dataset name")
    parser.add_argument("--edges", help="path to a SNAP-style edge list")


def _add_profile_knobs(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--profile",
        action="store_true",
        help="trace the run and print the phase profile + work counters",
    )
    parser.add_argument(
        "--trace-out",
        metavar="PATH",
        help="with --profile, also write a Chrome trace-event JSON artifact",
    )


def _print_profile(args: argparse.Namespace, window: obs.Window) -> None:
    print()
    print(obs.profile_table(obs.phase_profile(window.events())).format())
    print()
    print(obs.counters_table(window.counters()).format())
    if args.trace_out:
        path = obs.write_chrome_trace(args.trace_out, window.events(), window.counters())
        print(f"\nwrote Chrome trace-event JSON to {path}")


def _cmd_stats(args: argparse.Namespace) -> int:
    stats = graph_stats(_load_graph(args))
    print(f"nodes   {stats.nodes}")
    print(f"edges   {stats.edges}")
    print(f"d_avg   {stats.degree_avg:.2f}")
    print(f"d_max   {stats.degree_max}")
    print(f"k_max   {stats.k_max}")
    return 0


def _cmd_decompose(args: argparse.Namespace) -> int:
    graph = _load_graph(args)
    window = obs.window()
    with obs.tracing(True if args.profile else None):
        if args.layers:
            decomposition = peel_decomposition(graph)
        else:
            decomposition = core_decomposition(graph)
    if args.layers:
        for u in sorted(graph.vertices(), key=repr):
            k, i = decomposition.shell_layer[u]
            print(f"{u}\t{decomposition.coreness[u]}\t{k},{i}")
    else:
        for u in sorted(graph.vertices(), key=repr):
            print(f"{u}\t{decomposition.coreness[u]}")
    if args.profile:
        _print_profile(args, window)
    return 0


def _cmd_anchor(args: argparse.Namespace) -> int:
    graph = _load_graph(args)
    window = obs.window()
    persistence = {
        "faults": args.faults,
        "checkpoint": args.checkpoint,
        "checkpoint_every": args.checkpoint_every,
        "resume": args.resume,
    }
    with obs.tracing(True if args.profile else None):
        if args.method == "gac":
            result = gac(
                graph,
                args.budget,
                workers=args.workers,
                **persistence,
            )
            anchors, gain = result.anchors, result.total_gain
        elif args.method == "olak":
            if args.k is None:
                raise SystemExit("error: --k is required for olak")
            olak_result = olak(graph, args.k, args.budget, **persistence)
            anchors, gain = olak_result.anchors, olak_result.coreness_gain
        else:
            if args.checkpoint or args.resume or args.faults:
                raise SystemExit(
                    "error: --checkpoint/--resume/--faults apply to gac and olak only"
                )
            fn = HEURISTICS[args.method]
            kwargs = {"seed": args.seed} if args.method == "Rand" else {}
            anchors = fn(graph, args.budget, **kwargs)
            gain = coreness_gain(graph, anchors)
    print(f"anchors       {' '.join(str(a) for a in anchors)}")
    print(f"coreness_gain {gain}")
    if args.profile:
        _print_profile(args, window)
    return 0


def _cmd_cascade(args: argparse.Namespace) -> int:
    graph = _load_graph(args)
    seeds = [int(s) for s in args.seeds.split(",")] if args.seeds else []
    anchors = [int(a) for a in args.anchors.split(",")] if args.anchors else []
    result = departure_cascade(graph, args.k, seeds, anchors)
    print(f"departed   {len(result.departed)}")
    print(f"survivors  {len(result.survivors)}")
    print(f"rounds     {result.rounds}")
    print(f"contagion  {result.contagion_size}")
    return 0


def _cmd_datasets(_: argparse.Namespace) -> int:
    for name in registry.names():
        ds = registry.spec(name)
        print(f"{name:12s} {ds.display:12s} n={ds.n}")
    return 0


def _cmd_faults(_: argparse.Namespace) -> int:
    """The discoverable fault-site catalog (``python -m repro faults``)."""
    width = max(len(site.name) for site in _faults.catalog())
    for site in _faults.catalog():
        scope = "parallel" if site.parallel else "always"
        print(f"{site.name:<{width}s}  [{scope:8s}]  {site.description}")
    print()
    print("arm with REPRO_FAULTS or --faults: site=raise[@N] | delay:S | p:P[:SEED]")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Anchored coreness toolkit (SIGMOD 2020 reproduction).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_stats = sub.add_parser("stats", help="graph statistics (Table 4 row)")
    _add_graph_source(p_stats)
    p_stats.set_defaults(func=_cmd_stats)

    p_dec = sub.add_parser("decompose", help="print per-vertex coreness")
    _add_graph_source(p_dec)
    p_dec.add_argument("--layers", action="store_true", help="include shell-layer pairs")
    _add_profile_knobs(p_dec)
    p_dec.set_defaults(func=_cmd_decompose)

    p_anchor = sub.add_parser("anchor", help="choose an anchor set")
    _add_graph_source(p_anchor)
    p_anchor.add_argument(
        "--method",
        default="gac",
        choices=["gac", "olak", *HEURISTICS],
        help="anchoring algorithm (default: gac)",
    )
    p_anchor.add_argument("-b", "--budget", type=int, default=10)
    p_anchor.add_argument("--k", type=int, help="core parameter (olak only)")
    p_anchor.add_argument("--seed", type=int, default=0, help="RNG seed (Rand only)")
    p_anchor.add_argument(
        "--workers",
        type=int,
        default=None,
        help="candidate-scan worker processes (gac only; default: "
        "REPRO_PARALLEL, else serial). Results are identical for every "
        "value — this knob trades processes for wall-clock only.",
    )
    p_anchor.add_argument(
        "--checkpoint",
        metavar="PATH",
        help="write a round-granular snapshot here after each committed "
        "round (gac/olak); kill-and-resume from it is byte-identical",
    )
    p_anchor.add_argument(
        "--checkpoint-every",
        type=int,
        default=1,
        metavar="N",
        help="with --checkpoint, snapshot every N rounds (default: 1; the "
        "final round is always written)",
    )
    p_anchor.add_argument(
        "--resume",
        metavar="PATH",
        help="continue from a snapshot written by --checkpoint (the graph "
        "and algorithm parameters must match)",
    )
    p_anchor.add_argument(
        "--faults",
        metavar="SPEC",
        help="arm the fault-injection layer for this run, e.g. "
        "'gac.round_commit=raise@3' (see 'python -m repro faults')",
    )
    _add_profile_knobs(p_anchor)
    p_anchor.set_defaults(func=_cmd_anchor)

    p_cascade = sub.add_parser("cascade", help="simulate a departure cascade")
    _add_graph_source(p_cascade)
    p_cascade.add_argument("--k", type=int, required=True, help="engagement threshold")
    p_cascade.add_argument("--seeds", help="comma-separated leaver vertex ids")
    p_cascade.add_argument("--anchors", help="comma-separated anchored vertex ids")
    p_cascade.set_defaults(func=_cmd_cascade)

    p_ds = sub.add_parser("datasets", help="list built-in replica datasets")
    p_ds.set_defaults(func=_cmd_datasets)

    p_faults = sub.add_parser(
        "faults", help="list the registered fault-injection sites"
    )
    p_faults.set_defaults(func=_cmd_faults)

    # "lint" is dispatched before argparse in main() (REMAINDER cannot
    # forward leading --flags); registered here only for --help listing.
    p_lint = sub.add_parser(
        "lint",
        help="run the determinism linter (all arguments forwarded to "
        "repro.lint; see 'python -m repro lint --help')",
    )
    p_lint.set_defaults(func=lambda _args: _cmd_lint([]))
    return parser


def _cmd_lint(forwarded: list[str]) -> int:
    from repro.lint.__main__ import main as lint_main

    return lint_main(forwarded)


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] == "lint":
        # Forward everything after "lint" verbatim (argparse REMAINDER
        # refuses to swallow leading --flags, so bypass it entirely).
        return _cmd_lint(list(argv[1:]))
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (
        DatasetError,
        FileNotFoundError,
        ParseError,
        BudgetError,
        CheckpointError,
    ) as exc:
        # Bad input is the caller's fault: one line, not a traceback.
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
