"""The four power-type graphs of a finite group, computed from its table.

Builds a few groups from expressions and prints the size of each graph:
the power graph (x ~ y when one is a power of the other), its directed
version, the enhanced power graph (x ~ y when <x, y> is cyclic), and the
difference graph (enhanced minus power edges, isolated vertices dropped).
"""

from latgraph import (
    build_group,
    diff_oracle,
    dirpow_oracle,
    epow_oracle,
    parse_group_expr,
    pow_oracle,
)
from latgraph.formats import graph_to_dot

for text in ("Z(6)", "Z(2)xZ(6)", "Q(8)", "S(4)", "Heis(3)"):
    named = build_group(parse_group_expr(text))
    G = named.group
    ep = epow_oracle(G)
    pw = pow_oracle(G)
    dp = dirpow_oracle(G)
    df = diff_oracle(G)
    print(f"{named.name}  (order {G.order})")
    print(f"  enhanced power graph: {ep.vertex_count} vertices, {ep.edge_count} edges")
    print(f"  power graph:          {pw.vertex_count} vertices, {pw.edge_count} edges")
    print(f"  directed power graph: {dp.vertex_count} vertices, {dp.arc_count} arcs")
    print(f"  difference graph:     {df.graph.vertex_count} vertices, "
          f"{df.graph.edge_count} edges")
    print()

# any of them can be rendered for graphviz; names come from the constructor
named = build_group(parse_group_expr("Z(6)"))
print("DOT form of the enhanced power graph of Z(6):")
print(graph_to_dot(epow_oracle(named.group), labels=list(named.element_names)))
