"""Command line interface.

    latgraph graph       --group EXPR|--from FILE --kind epow|pow|dirpow|diff
                         --format summary|json|dot
    latgraph lattice     --group EXPR|--from FILE --format summary|json|dot
    latgraph reconstruct --direction lattice-from-epow|epow-from-lattice|pow-from-lattice|
                                      dirpow-from-lattice|diff-from-lattice --from FILE
    latgraph roundtrip   --group EXPR
    latgraph compare     --group-a EXPR --group-b EXPR [--budget N]
    latgraph census      --catalog order16 --kind pow|epow|dirpow|diff|lattice [--budget N]

Exit codes: 0 success, 1 verification failure, 2 usage or parse error,
3 resource cap exceeded or out of memory, 4 invalid mathematical input.
The exit code and stdout depend only on the arguments and the bytes of the
input files, which are read as UTF-8.  Every command also takes
``--max-order N``, the one way to set the order cap (default 512).
"""

from __future__ import annotations

import argparse
import functools
import os
import reprlib
import sys
from collections.abc import Sequence
from pathlib import Path

from .catalog import (
    FromCayleyFile,
    NamedGroup,
    build_group,
    order16_catalog,
    parse_group_expr,
)
from .formats import graph_from_json, label_strings, lattice_from_json, render
from .group_core import (
    DEFAULT_ORDER_CAP,
    FiniteGroup,
    TooLarge,
    is_abelian,
    order_statistics,
)
from .iso import (
    DEFAULT_BUDGET,
    IsoTimeout,
    compare_groups,
    digraph_invariant,
    digraph_isomorphism,
    graph_invariant,
    graph_isomorphism,
    isomorphism_classes,
    labeled_lattice_isomorphism,
    lattice_invariant,
)
from .lattice import InvalidLattice, build_lattice
from .power_graphs import (
    Digraph,
    SimpleGraph,
    diff_oracle,
    dirpow_oracle,
    epow_oracle,
    pow_oracle,
)
from .reconstruct import (
    LabeledGraph,
    NotAnEnhancedPowerGraph,
    diff_from_lattice,
    digraphs_match_up_to_generator_indices,
    dirpow_from_lattice,
    epow_from_lattice,
    lattice_from_epow,
    oracle_labeling,
    pow_from_lattice,
)


def _shortened(message: str) -> str:
    """``message``, or when its bytes, as stderr writes them (in its
    encoding, UTF-8 if it names none, with unencodable characters
    backslash-escaped), are more than 298 its two ends of at most 147 bytes
    each joined by "...": a refusal may quote its input whole, and an input
    of any length must not make the message long.  With its newline the
    line stays under 300 bytes in every locale."""
    encoding = getattr(sys.stderr, "encoding", None) or "utf-8"
    data = message.encode(encoding, errors="backslashreplace")
    if len(data) <= 298:
        return message
    return "...".join(part.decode(encoding, errors="ignore") for part in (data[:147], data[-147:]))


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors quote the input shortened;
    its subparsers are of this class too."""

    def error(self, message: str):
        super().error(_shortened(message))


def _positive_int(text: str) -> int:
    """``text`` as an int of at least 1, else ArgumentTypeError: a budget or
    a cap below 1 is a usage error, not an exhausted resource.  The message
    quotes a long ``text`` shortened in the middle."""
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {reprlib.repr(text)}")
    return value


def _load_group(args) -> NamedGroup:
    # graph and lattice take exactly one of --group and --from; roundtrip
    # has no --from
    from_file = getattr(args, "from_file", None)
    expr = parse_group_expr(args.group) if from_file is None else FromCayleyFile(from_file)
    return build_group(expr, order_cap=args.max_order)


def _oracle(G: FiniteGroup, kind: str) -> tuple[SimpleGraph | Digraph, Sequence[int]]:
    """The oracle graph of ``kind`` and the element id of each of its
    vertices: every element, except that the difference graph drops its
    isolated ones."""
    if kind == "diff":
        diff = diff_oracle(G)
        return diff.graph, diff.retained
    # built per call, so a function rebound on the module is the one called
    oracle = {"epow": epow_oracle, "pow": pow_oracle, "dirpow": dirpow_oracle}[kind]
    return oracle(G), G.elements()


def cmd_graph(args) -> int:
    named = _load_group(args)
    g, ids = _oracle(named.group, args.kind)
    print(render(g, args.format, [named.element_names[v] for v in ids]), end="")
    return 0


def cmd_lattice(args) -> int:
    named = _load_group(args)
    print(render(build_lattice(named.group).lattice, args.format), end="")
    return 0


def cmd_reconstruct(args) -> int:
    text = Path(args.from_file).read_text(encoding="utf-8")
    if args.direction == "lattice-from-epow":
        g = graph_from_json(text, order_cap=args.max_order)
        if not isinstance(g, SimpleGraph):
            raise NotAnEnhancedPowerGraph("enhanced power graphs are undirected")
        print(render(lattice_from_epow(g).lattice, args.format), end="")
        return 0
    L = lattice_from_json(text, order_cap=args.max_order)
    # built per call, so a function rebound on the module is the one called
    build = {"epow-from-lattice": epow_from_lattice, "pow-from-lattice": pow_from_lattice,
             "dirpow-from-lattice": dirpow_from_lattice, "diff-from-lattice": diff_from_lattice}
    built = build[args.direction](L)
    print(render(built.graph, args.format, label_strings(built.labels)), end="")
    return 0


def cmd_roundtrip(args) -> int:
    """Check every reconstruction of one group against its oracles, with no
    search.  Line 1: phi(u) is the oracle label of any x in ``clique_of[u]``
    whose node has u's order.  The line passes when phi is a bijection onto
    L's nodes that carries the rebuilt covers onto ``L.covers``; phi keeps
    orders, so it is then a map that :func:`labeled_lattice_isomorphism`
    accepts.  A correct rebuild passes: its clique is a maximal cyclic
    subgroup C, u is C's subgroup of order d, and C's elements of order d
    generate it.

    The ``*-from-lattice`` lines share one match, of the directed power
    graphs.  Both sides build every graph from their own membership matrix
    M (the lattice's ``P·R·Pᵀ``, the group's from walks of its table) with
    the same :class:`PowerGraphs` code, so the match carries to every graph
    (in diff a node's generators are open twins, kept or dropped together).
    The tests check the identities from M to each graph.
    """
    G = _load_group(args).group
    L = build_lattice(G).lattice
    labels = oracle_labeling(G)
    rebuilt = lattice_from_epow(epow_oracle(G))
    phi = [next((labels[x] for x in clique if L.orders[labels[x]] == d), -1)
           for d, clique in zip(rebuilt.lattice.orders, rebuilt.clique_of)]
    covers = {(phi[lo], phi[hi]) for lo, hi in rebuilt.lattice.covers}
    lattice_ok = sorted(phi) == list(L.nodes()) and covers == L.covers
    oracle = LabeledGraph(graph=dirpow_oracle(G), labels=labels)
    graphs_ok = digraphs_match_up_to_generator_indices(dirpow_from_lattice(L), oracle)

    results = {"lattice-from-epow": lattice_ok} | {
        f"{kind}-from-lattice": graphs_ok for kind in ("epow", "pow", "dirpow", "diff")
    }
    for name, ok in results.items():
        print(f"{'PASS' if ok else 'FAIL'} {name}")
    print(f"{sum(results.values())}/{len(results)} PASS")
    return 0 if all(results.values()) else 1


def _format_stats(stats: dict[int, int]) -> str:
    return "{" + ",".join(f"{d}:{c}" for d, c in sorted(stats.items())) + "}"


def cmd_compare(args) -> int:
    a = build_group(parse_group_expr(args.group_a), order_cap=args.max_order)
    b = build_group(parse_group_expr(args.group_b), order_cap=args.max_order)
    profile = compare_groups(a.group, b.group, budget=args.budget)
    for name, flag in zip(
        ("lattice_iso", "dirpow_iso", "epow_iso", "pow_iso"), profile.flags
    ):
        print(f"{name}={str(flag).lower()}")
    ab_a, ab_b = is_abelian(a.group), is_abelian(b.group)
    st_a, st_b = order_statistics(a.group), order_statistics(b.group)
    print(f"abelian_a={str(ab_a).lower()} abelian_b={str(ab_b).lower()}")
    print(f"order_statistics_a={_format_stats(st_a)}")
    print(f"order_statistics_b={_format_stats(st_b)}")
    if ab_a != ab_b:
        print("groups differ: abelianness")
    if st_a != st_b:
        print("groups differ: order statistics")
    return 0


def cmd_census(args) -> int:
    if args.catalog != "order16":
        print(_shortened(f"unknown catalog {args.catalog!r}"), file=sys.stderr)
        return 2
    entries = order16_catalog(order_cap=args.max_order)
    # each kind buckets by the invariant its search rejects on first
    if args.kind == "lattice":
        objs = [build_lattice(e.group).lattice for e in entries]
        invariant, search = lattice_invariant, labeled_lattice_isomorphism
    else:
        objs = [_oracle(e.group, args.kind)[0] for e in entries]
        invariant, search = ((digraph_invariant, digraph_isomorphism) if args.kind == "dirpow"
                             else (graph_invariant, graph_isomorphism))
    iso = lambda i, j: search(objs[i], objs[j], budget=args.budget).found
    classes = isomorphism_classes(len(entries), lambda i: invariant(objs[i]), iso)
    print(f"catalog={args.catalog} kind={args.kind} groups={len(entries)} classes={len(classes)}")
    for k, cls in enumerate(classes, start=1):
        print(f"class {k}: " + " ".join(entries[i].name for i in cls))
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser, built on first use: a parser is a web of cyclic
    references, so one per call would leave each to the cyclic collector."""
    parser = _Parser(
        prog="latgraph",
        description="Power-type graphs and cyclic subgroup lattices of finite groups.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def group_source(p: argparse.ArgumentParser) -> None:
        one = p.add_mutually_exclusive_group(required=True)
        one.add_argument("--group", help="group expression, e.g. 'Z(2)xZ(6)'")
        one.add_argument("--from", dest="from_file", help="Cayley table CSV file")

    p = sub.add_parser("graph", help="print a power-type graph of a group")
    group_source(p)
    p.add_argument("--kind", required=True, choices=["epow", "pow", "dirpow", "diff"])
    p.add_argument("--format", default="summary", choices=["dot", "json", "summary"])
    p.set_defaults(func=cmd_graph)

    p = sub.add_parser("lattice", help="print the cyclic subgroup lattice of a group")
    group_source(p)
    p.add_argument("--format", default="summary", choices=["dot", "json", "summary"])
    p.set_defaults(func=cmd_lattice)

    p = sub.add_parser("reconstruct", help="run a reconstruction on a JSON file")
    p.add_argument("--direction", required=True, choices=[
        "lattice-from-epow", "epow-from-lattice", "pow-from-lattice",
        "dirpow-from-lattice", "diff-from-lattice",
    ])
    p.add_argument("--from", dest="from_file", required=True, help="input JSON file")
    p.add_argument("--format", default="summary", choices=["dot", "json", "summary"])
    p.set_defaults(func=cmd_reconstruct)

    p = sub.add_parser("roundtrip", help="verify every reconstruction against the oracles")
    p.add_argument("--group", required=True, help="group expression")
    p.set_defaults(func=cmd_roundtrip)

    p = sub.add_parser("compare", help="isomorphism profile of two groups")
    p.add_argument("--group-a", required=True)
    p.add_argument("--group-b", required=True)
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("census", help="isomorphism classes across a catalog")
    p.add_argument("--catalog", required=True)
    p.add_argument("--kind", default="pow",
                   choices=["pow", "epow", "dirpow", "diff", "lattice"])
    p.set_defaults(func=cmd_census)

    for name in ("compare", "census"):  # the two commands that search
        sub.choices[name].add_argument(
            "--budget", type=_positive_int, default=DEFAULT_BUDGET,
            help="expansion budget for each isomorphism search, counted on the twin quotients")
    for p in sub.choices.values():
        p.add_argument("--max-order", type=_positive_int, default=DEFAULT_ORDER_CAP,
                       help="largest group order to build (default %(default)s)")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        args, code = None, exc.code if isinstance(exc.code, int) else 2
    try:
        if args is not None:
            code = args.func(args)
        # a closed stdout fails in this flush, not at interpreter exit; after
        # >&- stdout is None, and print then writes and flushes nothing
        print(end="", flush=True)
        return code
    except BrokenPipeError as exc:
        # the flush at interpreter exit then writes what is left to /dev/null
        with open(os.devnull, "wb") as devnull:
            os.dup2(devnull.fileno(), sys.stdout.fileno())
        if args is None:
            return code  # argparse ignores a failed write of its help, and so does main
        code, message = 2, f"error: {exc}"
    except (NotAnEnhancedPowerGraph, InvalidLattice) as exc:
        code, message = 4, f"error: {exc}"
    except (TooLarge, IsoTimeout) as exc:
        code, message = 3, f"error: {exc}"
    except MemoryError as exc:
        # a group under the cap can still outgrow the address space
        code, message = 3, "error: out of memory" + (f": {exc}" if str(exc) else "")
    except (OSError, ValueError) as exc:
        # expression/parameter/file/JSON problems are all usage errors
        code, message = 2, f"error: {exc}"
    print(_shortened(message), file=sys.stderr)
    return code

if __name__ == "__main__":
    sys.exit(main())
