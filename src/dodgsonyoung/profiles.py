"""Election profiles: data model, file format, and majority-rule primitives.

A profile is a candidate set together with a multiset of strict total
preference orders.  Identical orders may be stored compressed as
(order, multiplicity) entries; per-voter operations use expanded voter
indices 1..n in file order.  A `Profile` is a named tuple that checks its
entries when it is built, also through ``_replace`` and ``_make``;
`parse_profile` checks each line as it reads it, with its line number, and
then builds the record without checking again.
"""
from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterator

from .errors import ParseError

CandidateId = str
PreferenceOrder = tuple[CandidateId, ...]


def _check_candidates(names) -> set[CandidateId]:
    """Check a candidate list and return its set: nonempty, each name a single
    word without ``>``, no name twice."""
    if not names:
        raise ValueError("empty candidate list")
    seen = set()
    for name in names:
        if not name or ">" in name or any(ch.isspace() for ch in name):
            raise ValueError(f"invalid candidate name {name!r}")
        if name in seen:
            raise ValueError(f"duplicate candidate {name!r}")
        seen.add(name)
    return seen


def _check_voter(order, mult, candidates: set[CandidateId], written: str | None = None) -> None:
    """Check one voter entry: a positive integer multiplicity and an order
    naming every candidate once.  ``written`` is the order as a file spells
    it; then a token that is empty or not one word makes the order malformed."""
    if not isinstance(mult, int) or mult < 1:
        raise ValueError(f"multiplicity must be positive, got {mult!r}")
    seen = set()
    for tok in order:
        if written is not None and (not tok or len(tok.split()) != 1):
            raise ValueError(f"malformed preference order {written!r}")
        if tok not in candidates:
            raise ValueError(f"unknown candidate {tok!r}")
        if tok in seen:
            raise ValueError(f"duplicate candidate {tok!r} in order")
        seen.add(tok)
    if len(seen) != len(candidates):
        missing = sorted(candidates - seen)
        raise ValueError(f"order omits candidate(s): {' '.join(missing)}")


class Profile(namedtuple("Profile", "candidates voters")):
    """Candidates plus voters, each voter a (preference order, multiplicity) entry.

    Every order must be a permutation of the full candidate set.  The
    candidates, the entries and each order are stored as tuples, so a
    profile is immutable and hashable.  A profile built directly may have
    zero voters; the file format requires at least one voter line.
    """

    __slots__ = ()

    def __new__(cls, candidates, voters):
        candidates = tuple(candidates)
        voters = tuple((tuple(order), mult) for order, mult in voters)
        names = _check_candidates(candidates)
        for order, mult in voters:
            _check_voter(order, mult, names)
        return super().__new__(cls, candidates, voters)

    # namedtuple's `_replace` builds through `_make`, which skips `__new__`
    _make = classmethod(lambda cls, fields: cls(*fields))

    @property
    def num_voters(self) -> int:
        return sum(mult for _, mult in self.voters)

    def expanded(self) -> tuple[PreferenceOrder, ...]:
        """Orders of the individual voters 1..n, in file order."""
        return tuple(order for order, mult in self.voters for _ in range(mult))


class PairwiseTally(namedtuple("PairwiseTally", "candidates total matrix")):
    """Head-to-head counts: how many voters rank u above v, for every pair."""

    __slots__ = ()

    def count(self, u: CandidateId, v: CandidateId) -> int:
        i, j = self.candidates.index(u), self.candidates.index(v)
        if i == j:
            raise ValueError("pairwise count requires two distinct candidates")
        return self.matrix[i][j]

    def as_dict(self) -> dict[tuple[CandidateId, CandidateId], int]:
        return {
            (u, v): self.matrix[i][j]
            for i, u in enumerate(self.candidates)
            for j, v in enumerate(self.candidates)
            if i != j
        }


def payload_lines(text: str, first: str, other: str) -> Iterator[tuple[int, str, str]]:
    """Yield ``(lineno, head, rest)`` for each ``head: rest`` line of a
    line-oriented file, both parts stripped.

    Blank lines and comment lines (starting with ``#``) are skipped.  The
    first payload line must have head ``first``; the others are left to the
    caller, ``other`` naming them in the error for a line without a colon.
    """
    header_seen = False
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        head, sep, rest = line.partition(":")
        if not sep:
            raise ParseError(f"expected '{first}:' or '{other}:' line", lineno)
        head = head.strip()
        if not header_seen and head != first:
            raise ParseError(f"first non-comment line must be '{first}: ...'", lineno)
        header_seen = True
        yield lineno, head, rest.strip()
    if not header_seen:
        raise ParseError(f"no {first} line")


def at_line(lineno: int, check, *args):
    """``check(*args)``, its ``ValueError`` raised as a ``ParseError`` at ``lineno``."""
    try:
        return check(*args)
    except ValueError as exc:
        raise ParseError(str(exc), lineno) from None


def parse_profile(text: str) -> Profile:
    """Parse the line-oriented profile format.

    Comment lines (starting with ``#``) and blank lines are ignored.  The
    first payload line is ``candidates: a b c``; every following line is
    ``voter[ N]: a > b > c`` with multiplicity N defaulting to 1.
    """
    candidates: tuple[str, ...] | None = None
    voters: list[tuple[PreferenceOrder, int]] = []
    for lineno, head, rest in payload_lines(text, "candidates", "voter"):
        if candidates is None:
            candidates = tuple(rest.split())
            cand_set = at_line(lineno, _check_candidates, candidates)
            continue
        words = head.split()
        if not words or words[0] != "voter" or len(words) > 2:
            raise ParseError(f"expected 'voter[ N]:' line, got {head!r}", lineno)
        mult = 1
        if len(words) == 2:
            try:
                mult = int(words[1])
            except ValueError:
                raise ParseError(f"bad multiplicity {words[1]!r}", lineno) from None
        order = tuple(tok.strip() for tok in rest.split(">"))
        at_line(lineno, _check_voter, order, mult, cand_set, rest)
        voters.append((order, mult))
    if not voters:
        raise ParseError("no voter lines")
    return tuple.__new__(Profile, (candidates, tuple(voters)))  # every line is checked above


def serialize_profile(profile: Profile) -> str:
    """Render a profile in the file format; inverse of :func:`parse_profile`."""
    lines = ["candidates: " + " ".join(profile.candidates)]
    for order, mult in profile.voters:
        prefix = "voter" if mult == 1 else f"voter {mult}"
        lines.append(f"{prefix}: " + " > ".join(order))
    return "\n".join(lines) + "\n"


def tally(profile: Profile) -> PairwiseTally:
    """Count, for every ordered pair (u, v), the voters ranking u above v."""
    cands = profile.candidates
    k = len(cands)
    matrix = [[0] * k for _ in range(k)]
    for order, mult in profile.voters:
        rank = {name: pos for pos, name in enumerate(order)}
        for i, u in enumerate(cands):
            ru = rank[u]
            row = matrix[i]
            for j, v in enumerate(cands):
                if i != j and ru < rank[v]:
                    row[j] += mult
    return PairwiseTally(cands, profile.num_voters, tuple(tuple(row) for row in matrix))


def condorcet_winner(profile: Profile) -> CandidateId | None:
    """The candidate beating every rival by a strict majority, if one exists.

    With an empty electorate no candidate wins (0 > 0 fails).  Uniqueness is
    automatic: two candidates cannot both hold strict majorities against each
    other.
    """
    n = profile.num_voters
    if n == 0:
        return None
    t = tally(profile)
    k = len(profile.candidates)
    for i, c in enumerate(profile.candidates):
        if all(2 * t.matrix[i][j] > n for j in range(k) if j != i):
            return c
    return None


def replicate(profile: Profile, q: int) -> Profile:
    """The profile with every voter replicated q times."""
    if not isinstance(q, int) or q < 1:
        raise ValueError(f"replication factor must be a positive integer, got {q!r}")
    return Profile(profile.candidates, tuple((order, mult * q) for order, mult in profile.voters))
