"""Exact computation with sphere groups, sphere machines (wreath
recursions of Thurston maps), mapping class bisets, Thurston matrices
and twist-conjugacy rewriting."""

from .words import (
    SphereGroup, ConjClass, Automorphism, Word,
    reduce_word, wmul, winv, conjugate, is_conjugate,
    outer_equal, outer_normalize, dehn_twist, is_peripheral_preserving,
)
from .folding import SubgroupGraph, expand_expression
from .machine import (
    SphereMachine, WreathElement, LiftMultiset, BasisChange,
    SubgroupPresentation, ValidationReport, Portrait,
    validate_sphere, multiset_of_lifts, portrait, tensor, change_basis,
    pre_compose, post_compose, normalize_basis, stabilizer_subgroup,
)
from .mcbiset import (
    Distillation, MappingClassBiset, TableEdge, Terminal,
    distill, same_left_orbit, machine_isomorphism, compute_mcbiset,
    full_twist_generators, rewrite, conjugacy_iterate, monodromy,
    correspondence_invariants, lift_multiset_in_mcbiset, twist_fingerprint,
)
from .multicurve import (
    Multicurve, ThurstonMatrix, TreeOfGroups, TwistFixedPointProblem,
    LinExpr, classify_lifts, thurston_matrix, is_obstructed,
    twist_lift_check, solve_twist_fixed_point, verify_fixed_point,
    mc_to_gog, promote_bijection,
)
from .machfile import (
    MachineFile, parse_machine_file, print_machine_file, parse_word,
    load_mcb, save_mcb,
)

__version__ = "0.1.0"
