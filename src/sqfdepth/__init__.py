"""Squarefree powers of monomial ideals and their normalized depth function.

Depth is computed from first principles: multigraded Betti numbers of S/I
over a prime field via Hochster's formula, projective dimension as the top
nonzero homological degree, and depth by Auslander-Buchsbaum.

Two walks share one evaluator of a multidegree sigma on one of two
complexes with the same Betti numbers: Hochster's on the |sigma|
variables, and K_sigma on the generators dividing x^sigma (the lcm
lattice of Gasharov, Peeva and Welker, by Alexander duality).  The
table's walk (``depth_report``, ``betti_table``) lists every Betti
number; ``proj_dim`` and ``depth`` stop at the first nonzero degree.
Both take one route: an ideal with at most six generators walks its lcm
lattice, each sigma on K_sigma with homology cached for the process, and
ranked over F_2 for every field when K_sigma has at most five vertices,
since no complex that small has torsion; a
larger one first collapses its independent twin classes, then walks the
lattice if at most six generators are left, and otherwise one
representative per orbit of its twin variables.  Ranks are exact.  The
orbit walk refuses more than 2^24 candidates and any complex on more
than 24 vertices.

Everything is serial.  ``search`` draws each sample as a Philox generator
keyed (seed, index) would, as the generator masks of its ideal.  It asks
its sample source for ranges of up to 128 indices; for a generator
count, one numpy pass of the package's one Philox implementation gives a
whole range's words and a second turns them into mask rows, without
numpy.random, so a lone ``random_ideal`` pays a whole pass.  It keys each
range's samples together, computes each g-profile once per orbit of
ideals under relabeling and prime, and each depth once per orbit of
powers and process, for all primes at once when the power has at most
five generators, and builds an ``Ideal`` only for a new profile, a search
key or a finding.
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
