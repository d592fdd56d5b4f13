"""Power-type graphs and cyclic subgroup lattices of finite groups.

The enhanced power graph of a finite group and the order-labelled lattice of
its cyclic subgroups carry the same information: either one can be rebuilt
from the other without touching the group operation, and the power graph,
directed power graph and difference graph all follow from the lattice alone.
This package computes all of these objects directly from multiplication
tables (the oracles) and implements the element-free reconstructions, so
every reconstruction can be checked against ground truth.
"""

from .group_core import (
    CyclicSubgroup,
    FiniteGroup,
    cyclic_subgroups,
    generated_subgroup,
    is_abelian,
    order_statistics,
    validate_group,
)
from .catalog import (
    NamedGroup,
    build_group,
    format_group_expr,
    order16_catalog,
    parse_group_expr,
)
from .lattice import (
    CyclicLattice,
    LatticeWithSubgroups,
    build_lattice,
    divisor_cover_pairs,
    levelize,
    totient,
    validate_lattice,
)
from .power_graphs import (
    Digraph,
    DifferenceGraph,
    SimpleGraph,
    diff_oracle,
    dirpow_oracle,
    epow_oracle,
    maximal_cliques,
    pow_oracle,
)
from .reconstruct import (
    LabeledGraph,
    NotAnEnhancedPowerGraph,
    diff_from_lattice,
    dirpow_from_lattice,
    epow_from_lattice,
    lattice_from_epow,
    oracle_labeling,
    pow_from_lattice,
)
from .iso import (
    EquivalenceProfile,
    IsoResult,
    IsoTimeout,
    compare_groups,
    digraph_isomorphism,
    graph_isomorphism,
    labeled_lattice_isomorphism,
)

__version__ = "0.1.0"
