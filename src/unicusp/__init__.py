"""Exact tools for cuspidal plane curves over Q.

Sparse exact polynomial arithmetic, curve-level geometry (singular
loci, intersection cycles), embedded resolution with weighted dual
graphs, elliptic fiber completion and Kodaira classification, Cremona
transformations, a built-in worked curve family, and a command-line
front end.
"""

from .poly import Poly, X, Y, Z, exact_divide, gcd, resultant_wrt
from .parse import ParseError, parse_poly
from .curves import (
    CurveError,
    IntersectionCycle,
    IrrationalLocusError,
    PlaneCurve,
    ProjPoint,
    ResolutionIncompleteError,
    find_rational_singular_points,
    intersection_cycle,
    make_curve,
)
from .resolution import (
    ClassificationReport,
    NotUnibranchError,
    ResolutionResult,
    classify,
    delta_invariant,
    minimal_embedded_resolution,
)
from .dualgraph import GraphError, WeightedDualGraph
from .fibers import (
    CASE_OFF,
    CASE_ON,
    Completion,
    FiberConfig,
    blow_down,
    build_F0,
    classify_kodaira,
    complete_and_classify,
    solve_multiplicities,
)
from .cremona import (
    CremonaError,
    CremonaMap,
    base_conic,
    base_cubic,
    base_quintic,
    check_parameterization,
    extend_affine_automorphism,
    is_involution,
    make_map,
    pullback,
    quintic_involution,
    strict_transform,
)
from .corpus import (
    CORPUS,
    DEFAULT_PARAMS,
    CorpusEntry,
    CorpusError,
    ParamSet,
    curve_by_name,
    param_set,
    run_corpus,
)

__all__ = [
    "Poly",
    "X",
    "Y",
    "Z",
    "exact_divide",
    "gcd",
    "resultant_wrt",
    "ParseError",
    "parse_poly",
    "CurveError",
    "IntersectionCycle",
    "IrrationalLocusError",
    "PlaneCurve",
    "ProjPoint",
    "find_rational_singular_points",
    "intersection_cycle",
    "make_curve",
    "ClassificationReport",
    "NotUnibranchError",
    "ResolutionIncompleteError",
    "ResolutionResult",
    "classify",
    "delta_invariant",
    "minimal_embedded_resolution",
    "GraphError",
    "WeightedDualGraph",
    "CASE_OFF",
    "CASE_ON",
    "Completion",
    "FiberConfig",
    "blow_down",
    "build_F0",
    "classify_kodaira",
    "complete_and_classify",
    "solve_multiplicities",
    "CremonaError",
    "CremonaMap",
    "base_conic",
    "base_cubic",
    "base_quintic",
    "check_parameterization",
    "extend_affine_automorphism",
    "is_involution",
    "make_map",
    "pullback",
    "quintic_involution",
    "strict_transform",
    "CORPUS",
    "DEFAULT_PARAMS",
    "CorpusEntry",
    "CorpusError",
    "ParamSet",
    "curve_by_name",
    "param_set",
    "run_corpus",
]

__version__ = "0.1.0"
