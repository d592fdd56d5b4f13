"""Two different groups that no power-type graph can tell apart.

Z3 x Z3 x Z3 is abelian; the unitriangular matrix group mod 3 is not.  Both
have 26 elements of order 3 falling into 13 cyclic subgroups that meet only
at the identity, so their cyclic subgroup lattices are isomorphic, and with
them every power-type graph.  Only the group operation itself (here the
abelianness certificate) separates the two.
"""

from latgraph import (
    build_group,
    compare_groups,
    is_abelian,
    order_statistics,
    parse_group_expr,
)

abelian = build_group(parse_group_expr("Z(3)xZ(3)xZ(3)")).group
matrices = build_group(parse_group_expr("Heis(3)")).group

print("order statistics:")
print("  Z3 x Z3 x Z3:        ", order_statistics(abelian))
print("  unitriangular mod 3: ", order_statistics(matrices))

profile = compare_groups(abelian, matrices)
print("\nisomorphism profile (lattice, directed power, enhanced, power):")
print(" ", profile.flags)

print("\nabelian?", is_abelian(abelian), "vs", is_abelian(matrices))

# the same happens after tacking on a coprime cyclic factor
a2 = build_group(parse_group_expr("Z(3)xZ(3)xZ(3)xZ(2)")).group
m2 = build_group(parse_group_expr("Heis(3)xZ(2)")).group
print("\nwith a Z(2) factor:", compare_groups(a2, m2).flags)
