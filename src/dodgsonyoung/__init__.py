"""Exact and homogeneous Dodgson/Young election scoring.

Core pieces: preference profiles with pairwise tallies, an exact rational
LP/ILP engine, Dodgson and Young scores (ILP plus independent brute-force
oracles), their Fishburn-limit starred variants, and the reduction chain
from independence-number comparison down to Young Winner.

The reduction chain is loaded on first use: its names resolve through the
module ``__getattr__`` (PEP 562), so ``import dodgsonyoung`` and the scoring
verbs of the CLI never compile it.  ``dir()`` and ``__all__`` list its names
all the same.
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

__version__ = "0.1.0"

# Names that load `reductions` on first use, and the module itself.
_REDUCTIONS = frozenset("""
    ChainReport Graph MSPCInstance SetFamilyInstance YoungReductionOutput alpha amplify_for_winner
    graph inc_to_mspc kappa mspc_to_young_ranking parse_graph parse_set_family set_family
    verify_reduction_chain reductions
""".split())
__all__ = sorted({name for name in globals() if not name.startswith("_")} | _REDUCTIONS)


def __getattr__(name: str):
    if name not in _REDUCTIONS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib  # `from . import reductions` here would call this hook again
    module = importlib.import_module(".reductions", __name__)
    value = module if name == "reductions" else getattr(module, name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(globals().keys() | _REDUCTIONS)
