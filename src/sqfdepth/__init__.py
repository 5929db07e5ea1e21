"""Squarefree powers of monomial ideals and their normalized depth function.

Depth is computed from first principles: multigraded Betti numbers of S/I
over a prime field via Hochster's formula, projective dimension as the top
nonzero homological degree, and depth by Auslander-Buchsbaum.

Two walks share one evaluator of a multidegree sigma on one of two
complexes with the same Betti numbers: Hochster's on the |sigma|
variables, through the ideal's one face sieve (``homology.FaceSieve``: the
faces sorted by size, each coboundary row built once) up to 24 variables
and on sigma's own vertices past that, and a complex on the generators
dividing x^sigma, less those private to sigma (Gasharov-Peeva-Welker's
lcm lattice, by Alexander duality), with a sieve of its own.  Ranks are
exact: ``rank_gf2``, ``rank_gf3`` or ``rank_mod_p``, chosen by p.  Both
walks visit one representative per orbit of sigma under the ideal's twin
variables, enumerated directly from the twin classes, not from the 2^n
subsets.  The table's walk (``depth_report``, ``regularity``, the
``depth`` and ``betti`` commands) weights each representative by its
orbit's size, and ``betti_table`` lists every member; it takes the
generator complex when it has at least five fewer vertices.  ``proj_dim``
and ``depth`` (and ``g_profile``, ``verify_theorem``, the ``gprofile``,
``verify-family``, ``graph-depth`` and ``search`` commands) stop at the
first nonzero homology degree and take it when fewer generators divide
x^sigma than sigma has variables.  The rules differ on purpose: each is
the faster one, measured, for its walk.  A walk refuses more than 2^24
candidate representatives, and any complex on more than 24 vertices.
Everything is serial; ``search`` re-keys one Philox generator per index
(the stream of a new generator per sample), counts samples with nu = 1
without a key or a profile, and computes each other g-profile once per
orbit of ideals under relabeling, and each depth once per orbit of powers.
The orbit key of an ideal with at most five generators comes from one
cached table of generator orders, that of a larger one from a refinement
search.
"""

from .betti import (
    BettiTable,
    DepthReport,
    GProfile,
    betti_table,
    depth,
    depth_report,
    g_profile,
    proj_dim,
    regularity,
)
from .errors import (
    AmbientMismatch,
    DegenerateSample,
    InvalidExponent,
    InvalidFamilyParameter,
    InvalidGenerator,
    NotATree,
    ParseError,
    SpaceTooLarge,
    SqfdepthError,
    ZeroIdeal,
)
from .family import FamilyReport, build_family, verify_theorem
from .graphs import (
    Graph,
    edge_ideal,
    independence_domination,
    is_tree,
    maximal_independent_sets,
    minimal_vertex_covers,
    random_tree,
    tree_depth_via_lemma,
    tree_from_pruefer,
)
from .homology import FieldSpec, InducedComplex, induced_faces, reduced_homology_dims
from .ideals import Ideal, Monomial, minimize_generators
from .search import Finding, ScanResult, SearchConfig, random_ideal, scan

__version__ = "0.1.0"

__all__ = [
    "AmbientMismatch",
    "BettiTable",
    "DegenerateSample",
    "DepthReport",
    "FamilyReport",
    "FieldSpec",
    "Finding",
    "GProfile",
    "Graph",
    "Ideal",
    "InducedComplex",
    "InvalidExponent",
    "InvalidFamilyParameter",
    "InvalidGenerator",
    "Monomial",
    "NotATree",
    "ParseError",
    "ScanResult",
    "SearchConfig",
    "SpaceTooLarge",
    "SqfdepthError",
    "ZeroIdeal",
    "betti_table",
    "build_family",
    "depth",
    "depth_report",
    "edge_ideal",
    "g_profile",
    "independence_domination",
    "induced_faces",
    "is_tree",
    "maximal_independent_sets",
    "minimal_vertex_covers",
    "minimize_generators",
    "proj_dim",
    "random_ideal",
    "random_tree",
    "reduced_homology_dims",
    "regularity",
    "scan",
    "tree_depth_via_lemma",
    "tree_from_pruefer",
    "verify_theorem",
]
