"""Exact diagonalization and bipartite entanglement toolkit for correlated lattice models."""

__version__ = "0.1.0"

from .lattice import (
    Bipartition,
    Geometry,
    build_chain,
    build_icosahedron,
    half_cut,
    load_geometry,
    save_geometry,
)
from .basis import (
    BasisTable,
    BipartiteIndex,
    FermionState,
    Sector,
    SpinState,
    bipartite_factorize,
    enumerate_sector,
    multiplet_counts,
    sector_dimension,
)
from .hamiltonian import ModelSpec, SparseOperator, build_model, ohno_potential
from .symmetry import (
    SymmetryLabel,
    classify,
    format_label,
    parse_label,
    total_spin,
)
from .solver import (
    DegenerateManifold,
    EigenSet,
    dense_spectrum,
    group_degenerate,
    lanczos_lowest,
    lowest_in_label,
)
from .entanglement import (
    RDMSpectrum,
    decade_histogram,
    degenerate_average,
    entropy_both_sides,
    free_fermion_oracle,
    schmidt_spectrum,
)
from .analysis import (
    Profile,
    dos_histogram,
    entropy_profile,
    entropy_vs_logdos,
    excited_state_series,
    spearman_rank,
    subspace_spectrum,
    sweep_block_size,
    sweep_ground_state,
)
from .archive import read_archive, write_archive

__all__ = [name for name in dir() if not name.startswith("_")]
