"""Preferential-attachment random graphs via chord diagrams.

Three constructions that are equal in law at every n (sequential attachment,
uniform chord-diagram pairings, Polya-urn stick breaking), exact
combinatorial oracles for the m = 1 degree law, and a desk-scale
experiment harness.
"""

from .errors import (
    CapacityError,
    DomainError,
    InfeasibleSystemError,
    InsufficientDataError,
)
from .lcd import (
    ENUMERATION_CAP,
    LcdGraph,
    enumerate_pairings,
    graph_from_partner_array,
    pairing_count,
    sample_partner_array,
)
from .oracles import (
    DkQuery,
    ExactProb,
    cond_prob_degree,
    count_ns,
    double_factorial,
    expected_count,
    lemma2_approx,
    mode_s01,
    mode_s02,
    prob_dk,
    ratio_f,
    tail_bound,
)
from .processes import (
    ProcessParams,
    batch_total_degrees,
    generate,
    replicate_rng,
)
from .regions import (
    BUILTIN_SYSTEMS,
    Inequality,
    RegionResult,
    RegionSystem,
    combined_max_alpha,
    feasible_along,
    parse_inequality,
    region_max_alpha,
    region_vertices,
)

__version__ = "0.1.0"

__all__ = [
    "CapacityError",
    "DomainError",
    "InfeasibleSystemError",
    "InsufficientDataError",
    "ENUMERATION_CAP",
    "LcdGraph",
    "enumerate_pairings",
    "graph_from_partner_array",
    "pairing_count",
    "sample_partner_array",
    "DkQuery",
    "ExactProb",
    "cond_prob_degree",
    "count_ns",
    "double_factorial",
    "expected_count",
    "lemma2_approx",
    "mode_s01",
    "mode_s02",
    "prob_dk",
    "ratio_f",
    "tail_bound",
    "ProcessParams",
    "batch_total_degrees",
    "generate",
    "replicate_rng",
    "BUILTIN_SYSTEMS",
    "Inequality",
    "RegionResult",
    "RegionSystem",
    "combined_max_alpha",
    "feasible_along",
    "parse_inequality",
    "region_max_alpha",
    "region_vertices",
    "__version__",
]
