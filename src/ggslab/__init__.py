"""Computation with GGS-groups acting on the p-adic rooted tree.

A group is fixed by an odd prime p and a nonzero defining vector e over F_p;
the package computes sections, vertex actions, word equality and certified
syllable lengths, finite congruence quotients with their maximal-subgroup
censuses, and runs verification sweeps for the structural lemmas these
computations rest on, including the semidirect-product model that separates
the constant-vector group from the rest of the family.
"""

from .core import (DEFAULT_LENGTH_CAP, FAMILY_CONSTANT, FAMILY_FABRYKOWSKI_GUPTA,
                   FAMILY_GENERIC, FAMILY_TORSION, Element, GgsGroup, format_vertex,
                   make_ggs, parse_group_spec, parse_vertex)
from .errors import CrossCheckError, GgsLabError, InputError, ResourceLimitError
from .quotients import (LEAF_GUARD, LeafPermutation, level_quotient,
                        maximal_subgroups_census, project)
from .words import GroupWord, format_word, parse_word

__version__ = "0.1.0"

__all__ = [
    "DEFAULT_LENGTH_CAP",
    "FAMILY_CONSTANT",
    "FAMILY_FABRYKOWSKI_GUPTA",
    "FAMILY_GENERIC",
    "FAMILY_TORSION",
    "CrossCheckError",
    "Element",
    "GgsGroup",
    "GgsLabError",
    "GroupWord",
    "InputError",
    "LEAF_GUARD",
    "LeafPermutation",
    "ResourceLimitError",
    "format_vertex",
    "format_word",
    "level_quotient",
    "make_ggs",
    "maximal_subgroups_census",
    "parse_group_spec",
    "parse_vertex",
    "parse_word",
    "project",
    "__version__",
]
