"""Fishburn-limit ("starred") Dodgson and Young scores via exact linear programs.

The starred score of a candidate is lim_{q->inf} score(qV)/q.  Its program
is the LP relaxation of the grouped exact program (see
:func:`exact.dodgson_rows` and :func:`exact.young_rows`) with the strict
majority threshold closed to a weak one.  Under q-fold replication the
integer threshold exceeds the weak one by at most 1/2 vote, a gap whose
per-q share vanishes in the limit, so the relaxation attains the limit
exactly.  Consequently a starred score is 0 (Dodgson) or n (Young)
precisely on weak Condorcet winners, where ties are allowed.  Replication
scales every bound and right-hand side by q and leaves the rows and columns
as they are, so the program size does not depend on q.
"""
from __future__ import annotations

from fractions import Fraction

from . import exact
from .errors import CapExceededError
from .lp import LinearProgram, linear_program, solve_lp
from .profiles import CandidateId, Profile, replicate


def dodgson_star_program(profile: Profile, c: CandidateId) -> LinearProgram:
    """LP relaxation of the Dodgson lift program at the weak threshold n/2."""
    return linear_program("min", *exact.dodgson_rows(profile, c, weak=True))


def dodgson_star_score(profile: Profile, c: CandidateId) -> Fraction:
    """Value of the weak-threshold lift LP; equals lim dodgson_score(qV)/q."""
    sol = solve_lp(dodgson_star_program(profile, c))
    if sol.status != "optimal":  # pragma: no cover - lifting everything is feasible
        raise RuntimeError("internal: Dodgson* program must be feasible")
    return sol.objective_value


def young_star_program(profile: Profile, c: CandidateId) -> LinearProgram:
    """LP relaxation of the Young keep program at the weak threshold."""
    return linear_program("max", *exact.young_rows(profile, c, weak=True))


def young_star_score(profile: Profile, c: CandidateId) -> Fraction:
    """Value of the weak-threshold keep LP; equals lim young_score(qV)/q."""
    sol = solve_lp(young_star_program(profile, c))
    if sol.status != "optimal":  # pragma: no cover - zero weights are feasible
        raise RuntimeError("internal: Young* program must be feasible")
    return sol.objective_value


def dodgson_star_scores(profile: Profile) -> dict[CandidateId, Fraction]:
    return {c: dodgson_star_score(profile, c) for c in profile.candidates}


def young_star_scores(profile: Profile) -> dict[CandidateId, Fraction]:
    return {c: young_star_score(profile, c) for c in profile.candidates}


def dodgson_star_winner(profile: Profile, c: CandidateId) -> bool:
    exact._require_candidate(profile, c)
    scores = dodgson_star_scores(profile)
    return scores[c] <= min(scores.values())


def dodgson_star_ranking(profile: Profile, c: CandidateId, d: CandidateId) -> bool:
    exact._require_candidate(profile, c)
    exact._require_candidate(profile, d)
    return dodgson_star_score(profile, c) <= dodgson_star_score(profile, d)


def young_star_winner(profile: Profile, c: CandidateId) -> bool:
    exact._require_candidate(profile, c)
    scores = young_star_scores(profile)
    return scores[c] >= max(scores.values())


def young_star_ranking(profile: Profile, c: CandidateId, d: CandidateId) -> bool:
    exact._require_candidate(profile, c)
    exact._require_candidate(profile, d)
    return young_star_score(profile, c) >= young_star_score(profile, d)


def dodgson_star_winners(profile: Profile) -> tuple[CandidateId, ...]:
    scores = dodgson_star_scores(profile)
    best = min(scores.values())
    return tuple(c for c in profile.candidates if scores[c] == best)


def young_star_winners(profile: Profile) -> tuple[CandidateId, ...]:
    scores = young_star_scores(profile)
    best = max(scores.values())
    return tuple(c for c in profile.candidates if scores[c] == best)


SCHEMES = ("dodgson", "young", "dodgson-star", "young-star")

_WINNER_SETS = {
    "dodgson": exact.dodgson_winners,
    "young": exact.young_winners,
    "dodgson-star": dodgson_star_winners,
    "young-star": young_star_winners,
}


def winner_set(profile: Profile, scheme: str) -> tuple[CandidateId, ...]:
    """All winners of the given scheme, in candidate display order."""
    try:
        fn = _WINNER_SETS[scheme]
    except KeyError:
        raise ValueError(f"unknown scheme {scheme!r}; expected one of {', '.join(SCHEMES)}") from None
    return fn(profile)


def homogeneity_check(scheme: str, profile: Profile, q: int, *, max_expanded: int = 64) -> bool:
    """Does the scheme elect the same winner set on the q-fold replicated profile?

    True is guaranteed for the starred schemes (their scores scale exactly by
    q); for the exact schemes this is a reporting tool, since Dodgson and
    Young are known not to be homogeneous in general.
    """
    if scheme not in _WINNER_SETS:
        raise ValueError(f"unknown scheme {scheme!r}; expected one of {', '.join(SCHEMES)}")
    if not isinstance(q, int) or q < 1:
        raise ValueError(f"replication factor must be a positive integer, got {q!r}")
    if scheme in ("dodgson", "young") and profile.num_voters * q > max_expanded:
        raise CapExceededError(
            f"exact-scheme homogeneity check capped at {max_expanded} expanded voters"
        )
    return winner_set(profile, scheme) == winner_set(replicate(profile, q), scheme)
