"""Fishburn-limit ("starred") Dodgson and Young scores via exact linear programs.

The starred score of a candidate is lim_{q->inf} score(qV)/q.  Its program
is the LP relaxation of the exact program (see :func:`exact.dodgson_rows`
and :func:`exact.young_rows`, which merge orders with the same short rivals
above c at the same distances or the same rivals beaten, and Young's
duplicate rival rows) with the strict majority threshold closed to a weak
one.  Dodgson's presolve, which keeps only the lifts that end just above a
rival short of the threshold, is exact for the LP too, so a weak Condorcet
winner gets an empty program.  Under q-fold replication the integer
threshold exceeds the weak one by at most 1/2 vote, a gap whose per-q share
vanishes in the limit, so the relaxation attains the limit exactly.
Consequently a starred score is 0 (Dodgson) or n (Young) precisely on weak
Condorcet winners, where ties are allowed.  Replication scales every bound
and right-hand side by q and leaves the rows and columns as they are, so
the program size does not depend on q.

Each score is one :func:`exact.solve_program` step with `solve_lp` as the
solver and no witness, so its value is a Fraction.  It first tries a
certificate (:func:`exact.dodgson_certificate`,
:func:`exact.young_certificate`): a greedy point and a dual vector whose
bound is the one-tally deficit bound (Dodgson*) or min(n, 2 N(c,k))
(Young*).  `solve_lp` checks both exactly and returns the point when its
value meets the bound; otherwise, when the greedy misses or the bound is
not the optimum, it runs the simplex.

``SCHEMES`` maps each scheme name to its :class:`exact.Scheme` row: the two
exact rows and the starred rows defined here.
"""
from __future__ import annotations

from fractions import Fraction

from . import exact
from .lp import LinearProgram, linear_program, solve_lp
from .profiles import CandidateId, Profile, replicate


def dodgson_star_program(profile: Profile, c: CandidateId) -> LinearProgram:
    """LP relaxation of the Dodgson lift program at the weak threshold n/2."""
    return linear_program("min", *exact.dodgson_rows(profile, c, weak=True))


def dodgson_star_score(profile: Profile, c: CandidateId) -> Fraction:
    """Value of the weak-threshold lift LP; equals lim dodgson_score(qV)/q.
    Certified by the greedy of :func:`exact.dodgson_certificate` when it
    meets the deficit bound, solved by the simplex otherwise."""
    return exact.solve_program(dodgson_star_program(profile, c), solve_lp, exact.dodgson_certificate)[0]


def young_star_program(profile: Profile, c: CandidateId) -> LinearProgram:
    """LP relaxation of the Young keep program at the weak threshold."""
    return linear_program("max", *exact.young_rows(profile, c, weak=True))


def young_star_score(profile: Profile, c: CandidateId) -> Fraction:
    """Value of the weak-threshold keep LP; equals lim young_score(qV)/q.
    Certified by the greedy of :func:`exact.young_certificate` when it meets
    min(n, 2 N(c,k)), solved by the simplex otherwise."""
    return exact.solve_program(young_star_program(profile, c), solve_lp, exact.young_certificate)[0]


# The scorers are looked up at call time, so that rebinding them (as a tracer does) is seen.
DODGSON_STAR = exact.Scheme("dodgson-star", lambda p, c: dodgson_star_score(p, c), min)
YOUNG_STAR = exact.Scheme("young-star", lambda p, c: young_star_score(p, c), max)

dodgson_star_winner = DODGSON_STAR.winner
dodgson_star_ranking = DODGSON_STAR.ranking
young_star_winner = YOUNG_STAR.winner
young_star_ranking = YOUNG_STAR.ranking

SCHEMES = {s.name: s for s in (exact.DODGSON, exact.YOUNG, DODGSON_STAR, YOUNG_STAR)}


def winner_set(profile: Profile, scheme: str) -> tuple[CandidateId, ...]:
    """All winners of the named scheme, in candidate display order."""
    if scheme not in SCHEMES:
        raise ValueError(f"unknown scheme {scheme!r}; expected one of {', '.join(SCHEMES)}")
    return SCHEMES[scheme].winners(profile)


def homogeneity_check(scheme: str, profile: Profile, q: int) -> bool:
    """Does the scheme elect the same winner set on the q-fold replicated profile?

    True is guaranteed for the starred schemes (their scores scale exactly by
    q); for the exact schemes this is a reporting tool, since Dodgson and
    Young are known not to be homogeneous in general.
    """
    replicated = replicate(profile, q)  # rejects a bad q before any score is computed
    return winner_set(profile, scheme) == winner_set(replicated, scheme)
