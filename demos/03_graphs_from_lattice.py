"""Rebuilding every power-type graph from the lattice alone.

The input here is nothing but an order-labelled Hasse diagram: no group, no
elements.  Each node of order d contributes phi(d) fresh vertices (the
generators of that subgroup), placed stage by stage from the bottom:

  * enhanced power graph: clique over the down-set of every node,
  * power graph: edges only between comparable nodes,
  * directed power graph: the same edges oriented downward,
  * difference graph: pairs that share an upper bound but are incomparable.

Every vertex is labelled by its node, printed as n<node>:g<k> for the k-th
vertex of that node, and the results agree with the graphs computed directly
from the group.
"""

from latgraph import (
    build_group,
    build_lattice,
    diff_from_lattice,
    dirpow_from_lattice,
    epow_from_lattice,
    levelize,
    parse_group_expr,
    pow_from_lattice,
)
from latgraph.formats import label_strings

named = build_group(parse_group_expr("Z(2)xZ(6)"))
L = build_lattice(named.group).lattice

print("lattice nodes by stage (order of each node):")
for t, stage in enumerate(levelize(L)):
    print(f"  stage {t}: orders {sorted(L.orders[v] for v in stage)}")

ep = epow_from_lattice(L)
pw = pow_from_lattice(L)
dp = dirpow_from_lattice(L)
df = diff_from_lattice(L)

print("\nreconstructed from the diagram alone:")
print(f"  enhanced power graph: {ep.graph.vertex_count} vertices, {ep.graph.edge_count} edges")
print(f"  power graph:          {pw.graph.vertex_count} vertices, {pw.graph.edge_count} edges")
print(f"  directed power graph: {dp.graph.vertex_count} vertices, {dp.graph.arc_count} arcs")
print(f"  difference graph:     {df.graph.vertex_count} vertices, {df.graph.edge_count} edges")

print("\nvertex labels of the difference graph:", label_strings(df.labels))

missing = sorted(set(ep.graph.edges()) - set(pw.graph.edges()))
print("\nenhanced edges that are not power edges (by vertex id):", missing)
