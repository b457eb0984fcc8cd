"""Exact and homogeneous Dodgson/Young election scoring.

Core pieces: preference profiles with pairwise tallies, an exact rational
LP/ILP engine, Dodgson and Young scores (ILP plus independent brute-force
oracles), their Fishburn-limit starred variants, and the reduction chain
from independence-number comparison down to Young Winner.
"""

from .errors import CapExceededError, ParseError
from .exact import (
    Scheme,
    dodgson_ranking,
    dodgson_score,
    dodgson_score_bruteforce,
    dodgson_score_with_moves,
    dodgson_winner,
    gain_matrix,
    validate_dodgson_witness,
    validate_young_witness,
    young_ranking,
    young_score,
    young_score_bruteforce,
    young_score_with_subset,
    young_winner,
)
from .homogeneous import (
    SCHEMES,
    dodgson_star_ranking,
    dodgson_star_score,
    dodgson_star_winner,
    homogeneity_check,
    winner_set,
    young_star_ranking,
    young_star_score,
    young_star_winner,
)
from .lp import (
    Constraint,
    IntegerProgram,
    LinearProgram,
    LPSolution,
    Variable,
    linear_program,
    solve_ilp,
    solve_lp,
)
from .profiles import (
    PairwiseTally,
    Profile,
    condorcet_winner,
    parse_profile,
    replicate,
    serialize_profile,
    tally,
)
from .reductions import (
    ChainReport,
    Graph,
    MSPCInstance,
    SetFamilyInstance,
    YoungReductionOutput,
    alpha,
    amplify_for_winner,
    graph,
    inc_to_mspc,
    kappa,
    mspc_to_young_ranking,
    parse_graph,
    parse_set_family,
    set_family,
    verify_reduction_chain,
)

__version__ = "0.1.0"
