"""Topological coding toolkit: digit-string algebra, W-constraint graph
labelings, Topcode matrices, every-zero groups, and toy key-pair protocol
simulations.

Importing the package loads no submodule.  Each public name below is
imported from its submodule the first time it is read (PEP 562), so a
caller pays only for the modules it uses."""

from importlib import import_module as _import_module

# public name -> the submodule that defines it
_EXPORTS = {
    name: module
    for module, names in {
        "strings": (
            "MOD9",
            "MOD10",
            "CombineOp",
            "DigitRing",
            "DigitString",
            "GroupOpMode",
            "PartitionMode",
            "PartitionSpec",
            "StringGroup",
            "SuperString",
            "build_shift_group",
            "flatten_multilevel",
            "group_op",
            "partition_strings",
            "self_breed",
            "super_arith",
        ),
        "graphs": (
            "ColoredGraph",
            "CoincideRule",
            "Graph",
            "HomMode",
            "VertexSplitPlan",
            "check_colored_homomorphism",
            "count_spanning_trees",
            "edge_add_sub",
            "edge_join",
            "split_complete_even",
            "split_complete_odd",
            "vertex_coincide",
            "vertex_split",
        ),
        "labelings": (
            "ConstraintSpec",
            "Family",
            "IndexedColor",
            "IndexedOp",
            "PairingKind",
            "SearchStatus",
            "check_pairing",
            "compose_string_coloring",
            "construct_witness",
            "indexed_op",
            "lift_from_set_ordered_graceful",
            "magic_transform",
            "rainbow_set_labeling",
            "search",
            "twin_shift",
            "verify",
        ),
        "topcode": (
            "ParamTopcode",
            "PermIndex",
            "TopcodeMatrix",
            "assignment_substitute",
            "adjacency_family",
            "curve_strings",
            "evaluate_set_cells",
            "nested_topcode",
            "parameterize",
            "pronbs_solve",
            "string_from_topcode",
            "topcode_from_graph",
        ),
        "groups": (
            "GraphicGroup",
            "MultipleJoinNetwork",
            "multiple_join_step",
            "build_graphic_group",
            "color_host_by_group",
            "graph_based_string",
            "graphic_group_op",
            "group_compound",
        ),
        "protocols": (
            "PROTOCOLS",
            "Direction",
            "KeyPair",
            "KeySource",
            "ProtocolContext",
            "authenticate",
            "gen_keypair",
            "keystream_cipher",
            "rotate_zero",
            "run_protocol",
            "seal",
            "unseal",
        ),
    }.items()
    for name in names
}

__all__ = sorted(_EXPORTS)

__version__ = "0.1.0"


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(_import_module(f"{__name__}.{module}"), name)
    globals()[name] = value  # later reads skip this hook
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_EXPORTS))
