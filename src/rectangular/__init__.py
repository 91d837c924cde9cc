"""Rectangular structures: construction, verification, interconversion,
classification, and exhaustive census of four equivalent models — pair-
disjoint arrays, rectangular groupoids, unique-path graph pairs, and
0/1-matrix pairs whose product is the all-ones matrix.

The exports are loaded on first use (PEP 562): ``rectangular.census`` or
``from rectangular import canonical_form`` imports the one submodule that
holds it, so a CLI launch loads only the modules its command runs.
"""

from importlib import import_module

_EXPORTS = {
    "census": (
        "CensusResult",
        "count_rectangular",
        "enumerate_band_blow_ups",
        "enumerate_central",
        "enumerate_rectangular",
        "iter_rectangular_tables",
    ),
    "construct": (
        "abelian_group",
        "constant_groupoid",
        "coset_construction",
        "cyclic_group",
        "evans_central",
        "extract_partition_system",
        "group_factorization_pair",
        "is_partitioned_pair",
        "left_extension",
        "left_split_extension",
        "partition_construction",
        "rectangular_band",
        "right_extension",
        "right_split_extension",
        "simple_blow_up",
    ),
    "core": (
        "BoolMatrix",
        "CapacityError",
        "FiniteGroup",
        "GraphPair",
        "Groupoid",
        "IsotopyTriple",
        "Mapping",
        "Partition",
        "PartitionSystem",
        "Permutation",
        "Transversal",
        "PartialArray",
        "TRIVIAL",
        "compose",
        "dual_graph_pair",
        "make_groupoid",
        "opposite",
        "transpose",
    ),
    "isotopy": (
        "apply_isotopy",
        "are_isomorphic",
        "are_isotopic",
        "canonical_form",
        "find_transversal",
        "idempotent_isotope",
        "relabel",
    ),
    "properties": (
        "derive_plus",
        "has_blackburn",
        "is_associative",
        "is_central",
        "is_congruence",
        "is_full",
        "is_idempotent",
        "is_matrix_symmetric",
        "is_maximal",
        "is_partial_latin",
        "is_partial_p1",
        "is_rectangular",
        "satisfies_dually_partitioned_eqs",
        "satisfies_p1",
        "satisfies_p2",
        "satisfies_p4",
        "satisfies_partitioned_eqs",
        "satisfies_undirected_eq",
    ),
    "transform": (
        "ClosureError",
        "direct_product",
        "graph_pair_to_groupoid",
        "graph_pair_to_matrices",
        "groupoid_to_graph_pair",
        "matrices_to_graph_pair",
        "quotient",
        "square_lift",
        "subalgebra",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted([*_EXPORTS, *_HOME])


def __getattr__(name: str):
    if name in _EXPORTS:
        return import_module(f"{__name__}.{name}")
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{_HOME[name]}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
