"""Subgroup lattice analysis for small finite groups.

Core pieces:

- :mod:`modmax.groups`: Cayley-table groups, products, quotients and
  subgroups as groups;
- :mod:`modmax.lattice`: any finite lattice with modularity and
  n-maximality, and the full subgroup lattice, which adds quasinormality,
  S-quasinormality and subnormality;
- :mod:`modmax.classify`: chief factors and the supersolubility hierarchy
  (supersoluble, strongly supersoluble, nearly nilpotent, dispersive, ...);
- :mod:`modmax.verify`: the theorem verification harness and suite runner;
- :mod:`modmax.catalog`: deterministic constructions of the named groups.
"""

from .catalog import (
    CatalogEntry,
    construct,
    standard_suite,
)
from .classify import (
    ChiefFactor,
    ClassProfile,
    all_chief_factors,
    classify,
    dispersive_orderings,
    is_abelian,
    is_nearly_nilpotent,
    is_nilpotent,
    is_nilpotent_hall,
    is_p_group_schmidt,
    is_phi_dispersive,
    is_schmidt_group,
    is_soluble,
    is_strongly_supersoluble,
    is_supersoluble,
    is_u_critical,
    normal_subgroups,
    residual_strongly_supersoluble,
    residual_supersoluble,
)
from .groups import (
    Group,
    SubgroupSet,
    direct_product,
    find_isomorphism,
    group_from_cayley_table,
    group_from_json,
    group_from_permutations,
    load_group,
    prime_spectrum,
    quotient,
    semidirect_product,
    subgroup_as_group,
    whole_group,
)
from .lattice import SubgroupLattice, enumerate_lattice, lattice_of
from .verify import (
    ModularityCensus,
    SuiteResult,
    VerdictReport,
    census,
    run_suite,
)

__version__ = "0.1.0"
