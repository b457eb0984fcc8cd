"""Reduction chain as executable instance generators, with exhaustive oracles.

The chain: comparing graph independence numbers reduces to comparing maximum
set packings (vertex -> set of incident edges), which reduces to Young
Ranking through a profile built from six voter shapes around two designated
candidates, and Young Ranking reduces to Young Winner by replicating every
non-designated candidate into a rotated block per voter.  The package and
the CLI load this module only when it is used (the ``reduce``, ``amplify``
and ``verify`` verbs).  Like `parse_profile`, the graph and set-family
parsers check each line once and build their record without checking again.
"""
from __future__ import annotations

from collections import namedtuple

from .errors import CapExceededError, ParseError
from .exact import _require_candidate, validate_young_witness, young_score_bruteforce, young_score_with_subset
from .profiles import CandidateId, Profile, at_line, payload_lines

# Largest vertex count `alpha` and member-set count `kappa` enumerate subsets of.
SEARCH_CAP = 16
# Largest amplified profile `amplify_for_winner` builds, in voters * candidates.
AMPLIFY_CAP = 2_000_000


def _index(names: tuple[str, ...], what: str) -> dict[str, int]:
    """Position of each name; a name listed twice is a duplicate ``what``."""
    index = {name: i for i, name in enumerate(names)}
    if len(index) != len(names):
        raise ValueError(f"duplicate {what}")
    return index


def _check_edge(u: str, v: str, index: dict[str, int], seen: set[frozenset[str]]) -> None:
    """Check one edge against the vertices and the edges ``seen`` before it, then add it."""
    if u not in index or v not in index:
        raise ValueError(f"edge ({u!r}, {v!r}) uses an unknown vertex")
    if u == v:
        raise ValueError(f"loop at {u!r} is not allowed in a simple graph")
    key = frozenset((u, v))
    if key in seen:
        raise ValueError(f"duplicate edge ({u!r}, {v!r})")
    seen.add(key)


def _check_member(member: tuple[str, ...], index: dict[str, int]) -> None:
    """Check one member set: nonempty, no element twice, every element in the ground set."""
    if not member:
        raise ValueError("member sets must be nonempty")
    if len(set(member)) != len(member):
        raise ValueError(f"duplicate element in member set {member!r}")
    for e in member:
        if e not in index:
            raise ValueError(f"member set element {e!r} is not in the ground set")


def _in_base_order(elements, index: dict[str, int]) -> tuple[str, ...]:
    """Elements sorted by ground-set position, unknown ones first."""
    return tuple(sorted(elements, key=lambda e: index.get(e, -1)))


class Graph(namedtuple("Graph", "vertices edges")):
    """Simple undirected graph, built from any iterable of vertices and of
    edges and stored as tuples; vertex and edge order follow the input, and
    each edge's endpoints are put in vertex order."""

    __slots__ = ()

    def __new__(cls, vertices, edges):
        vertices = tuple(vertices)
        index = _index(vertices, "vertex")
        seen: set[frozenset[str]] = set()
        normalized = []
        for u, v in edges:
            _check_edge(u, v, index, seen)
            normalized.append((u, v) if index[u] < index[v] else (v, u))
        return super().__new__(cls, vertices, tuple(normalized))

    _make = classmethod(lambda cls, fields: cls(*fields))  # as in Profile


graph = Graph


class SetFamilyInstance(namedtuple("SetFamilyInstance", "base family")):
    """Ordered ground set plus a family of nonempty member sets, each member
    set sorted by ground-set order; built from any iterables and stored as
    tuples."""

    __slots__ = ()

    def __new__(cls, base, family):
        base = tuple(base)
        index = _index(base, "ground-set element")
        members = []
        for member in family:
            member = _in_base_order(member, index)
            _check_member(member, index)
            members.append(member)
        return super().__new__(cls, base, tuple(members))

    _make = classmethod(lambda cls, fields: cls(*fields))  # as in Profile


set_family = SetFamilyInstance


class MSPCInstance(namedtuple("MSPCInstance", "first second")):
    """Two set families whose maximum packings are compared."""

    __slots__ = ()


def _largest_compatible(conflicts: list[int]) -> int:
    """Size of a largest set of items no two of which conflict, by exhaustive
    search; bit j of ``conflicts[i]`` is set when items i and j conflict."""
    best = 0
    for mask in range(1 << len(conflicts)):
        if mask.bit_count() <= best:
            continue
        rest = mask
        while rest:
            low = rest & -rest
            if conflicts[low.bit_length() - 1] & mask:
                break
            rest ^= low
        else:
            best = mask.bit_count()
    return best


def alpha(g: Graph) -> int:
    """Independence number: vertices conflict when an edge joins them."""
    if len(g.vertices) > SEARCH_CAP:
        raise CapExceededError(f"independence search capped at {SEARCH_CAP} vertices")
    index = {v: i for i, v in enumerate(g.vertices)}
    adj = [0] * len(g.vertices)
    for u, v in g.edges:
        adj[index[u]] |= 1 << index[v]
        adj[index[v]] |= 1 << index[u]
    return _largest_compatible(adj)


def kappa(s: SetFamilyInstance) -> int:
    """Maximum number of pairwise disjoint member sets: sets conflict when they intersect."""
    if len(s.family) > SEARCH_CAP:
        raise CapExceededError(f"set-packing search capped at {SEARCH_CAP} sets")
    index = {e: i for i, e in enumerate(s.base)}
    masks = [sum(1 << index[e] for e in member) for member in s.family]
    conflicts = [
        sum(1 << j for j, other in enumerate(masks) if j != i and mask & other)
        for i, mask in enumerate(masks)
    ]
    return _largest_compatible(conflicts)


def _incident_edge_family(g: Graph) -> SetFamilyInstance:
    incident: dict[str, list[str]] = {v: [] for v in g.vertices}
    tokens = []
    for u, v in g.edges:
        token = f"{u}-{v}"
        tokens.append(token)
        incident[u].append(token)
        incident[v].append(token)
    if len(set(tokens)) != len(tokens):
        raise ValueError("edge token collision; avoid '-' inside vertex names")
    isolated = [v for v in g.vertices if not incident[v]]
    if isolated:
        raise ValueError(f"isolated vertex {isolated[0]!r}: every member set must be nonempty")
    return SetFamilyInstance(tuple(tokens), tuple(tuple(incident[v]) for v in g.vertices))


def inc_to_mspc(g1: Graph, g2: Graph) -> MSPCInstance:
    """Independence-number comparison as a set-packing comparison.

    Each graph's ground set is its edge set and each vertex contributes the
    set of its incident edges, so alpha(G_i) = kappa of the i-th family.
    Isolated vertices are rejected: they would produce empty member sets.
    """
    return MSPCInstance(_incident_edge_family(g1), _incident_edge_family(g2))


class YoungReductionOutput(namedtuple(
    "YoungReductionOutput",
    "profile c d a b first_elements second_elements set_voters_first set_voters_second"
    " form_of_voter kappa1 kappa2",
)):
    """Profile of 2|S1|+2|S2|+2 voters over {c,d,a,b} and the renamed ground sets.

    ``c``, ``d``, ``a`` and ``b`` name the four fixed candidates;
    ``first_elements`` and ``second_elements`` pair each ground-set element
    with its candidate.  ``form_of_voter[i-1]`` gives the shape (1..6) of
    expanded voter i; ``set_voters_first[t]`` is the voter index representing
    the t-th member set of the first family (``set_voters_second``
    likewise).  ``kappa1`` and ``kappa2`` are the families' maximum packings,
    so Young(c) = 2*kappa1+1 and Young(d) = 2*kappa2+1.
    """

    __slots__ = ()


def mspc_to_young_ranking(inst: MSPCInstance) -> YoungReductionOutput:
    """Build the Young Ranking profile whose designated scores are 2*kappa+1.

    Requires kappa > 2 on both families.  Ground-set elements are renamed
    x1..xm / y1..yn in ground-set order; enumeration inside every voter
    segment follows ground-set order.  The second family's complements are
    taken within its own ground set.
    """
    s1, s2 = inst.first, inst.second
    if not s1.family or not s2.family:
        raise ValueError("both families must be nonempty")
    k1 = kappa(s1)
    k2 = kappa(s2)
    if k1 <= 2 or k2 <= 2:
        raise ValueError(f"maximum packing must exceed 2 on both sides (got {k1} and {k2})")
    # Forms 4-6 mirror forms 1-3: the second family with the roles of
    # (c, a) and (d, b) swapped.
    sides = ((s1, "x", "c", "a"), (s2, "y", "d", "b"))
    renames = [{e: f"{prefix}{i + 1}" for i, e in enumerate(fam.base)} for fam, prefix, _, _ in sides]
    candidates = ("c", "d", "a", "b", *renames[0].values(), *renames[1].values())

    entries: list[tuple[tuple[str, ...], int]] = []
    form_of: list[int] = []
    set_voters: tuple[list[int], list[int]] = ([], [])
    for side, (fam, _, top, mid) in enumerate(sides):
        rename = renames[side]
        own = tuple(rename.values())
        _, _, other_top, other_mid = sides[1 - side]
        tail = (*renames[1 - side].values(), other_mid, other_top)
        form = 3 * side + 1
        for member in fam.family:
            chosen = set(member)
            inside = tuple(rename[e] for e in fam.base if e in chosen)
            outside = tuple(rename[e] for e in fam.base if e not in chosen)
            entries.append(((*inside, mid, top, *outside, *tail), 1))
            set_voters[side].append(len(form_of) + 1)
            form_of.append(form)
        entries.append(((top, *own, mid, *tail), 2))
        entries.append(((*own, top, mid, *tail), len(fam.family) - 1))
        form_of.extend([form + 1] * 2 + [form + 2] * (len(fam.family) - 1))

    profile = Profile(candidates, tuple(entries))
    return YoungReductionOutput(
        profile=profile,
        c="c",
        d="d",
        a="a",
        b="b",
        first_elements=tuple(renames[0].items()),
        second_elements=tuple(renames[1].items()),
        set_voters_first=tuple(set_voters[0]),
        set_voters_second=tuple(set_voters[1]),
        form_of_voter=tuple(form_of),
        kappa1=k1,
        kappa2=k2,
    )


def amplify_for_winner(profile: Profile, c: CandidateId, d: CandidateId) -> Profile:
    """Replace every non-designated candidate by a per-voter rotated block.

    Candidate g becomes g^0..g^{n-1}; expanded voter i (0-based) sees the
    block starting at g^{i mod n}.  This preserves the Young scores of c and
    d while capping every replacement candidate's score at 1.  A single voter
    is refused: its rotation is degenerate.
    """
    _require_candidate(profile, c)
    _require_candidate(profile, d)
    if c == d:
        raise ValueError("designated candidates must be distinct")
    n = profile.num_voters
    if n == 0:
        raise ValueError("cannot amplify an empty electorate")
    if n == 1:
        raise ValueError("single-voter rotation is degenerate")
    others = [g for g in profile.candidates if g not in (c, d)]
    if not others:
        return profile
    size = n * (2 + len(others) * n)  # c, d and n copies of each other candidate
    if size > AMPLIFY_CAP:
        raise CapExceededError(f"amplify capped at {AMPLIFY_CAP} voters x candidates, got {size}")
    new_candidates: list[str] = []
    for g in profile.candidates:
        if g in (c, d):
            new_candidates.append(g)
        else:
            new_candidates.extend(f"{g}^{t}" for t in range(n))
    if len(set(new_candidates)) != len(new_candidates):
        raise ValueError("candidate name collision while amplifying; rename candidates")
    entries = []
    for i, order in enumerate(profile.expanded()):
        new_order: list[str] = []
        for g in order:
            if g in (c, d):
                new_order.append(g)
            else:
                new_order.extend(f"{g}^{(i + t) % n}" for t in range(n))
        entries.append((tuple(new_order), 1))
    return Profile(tuple(new_candidates), tuple(entries))


def young_scores_bruteforce_all(profile: Profile) -> dict[CandidateId, int]:
    """Young score of every candidate by subset enumeration (small n only)."""
    return {c: young_score_bruteforce(profile, c) for c in profile.candidates}


class ChainReport(namedtuple(
    "ChainReport",
    "alpha1 alpha2 kappa1 kappa2 young_c young_d alpha_compare kappa_compare ranking_answer"
    " equations_hold winner_checked winner_answer consistent",
)):
    """Stage-by-stage answers of one reduction-chain run.  The Young Winner
    stage is never brute-forced (see `verify_reduction_chain`), so
    ``winner_checked`` is False and ``winner_answer`` None."""

    __slots__ = ()


def verify_reduction_chain(g1: Graph, g2: Graph) -> ChainReport:
    """Run every stage of the chain and report whether all answers agree.

    The Young Winner stage on the amplified profile is reported as
    unchecked and nothing is amplified: brute force would enumerate
    candidates * 2^voters subsets, and two 3-stars, the smallest pair, give
    146 amplified candidates and 18 voters, so 146 * 2^18 > 38M.
    """
    a1 = alpha(g1)
    a2 = alpha(g2)
    red = mspc_to_young_ranking(inc_to_mspc(g1, g2))
    k1, k2 = red.kappa1, red.kappa2
    yc, wit_c = young_score_with_subset(red.profile, red.c)
    yd, wit_d = young_score_with_subset(red.profile, red.d)
    if not validate_young_witness(red.profile, red.c, yc, wit_c):  # pragma: no cover
        raise RuntimeError("internal: invalid Young witness for c")
    if not validate_young_witness(red.profile, red.d, yd, wit_d):  # pragma: no cover
        raise RuntimeError("internal: invalid Young witness for d")
    equations_hold = yc == 2 * k1 + 1 and yd == 2 * k2 + 1
    alpha_compare = a1 >= a2
    kappa_compare = k1 >= k2
    ranking_answer = yc >= yd
    consistent = (
        a1 == k1
        and a2 == k2
        and equations_hold
        and alpha_compare == kappa_compare == ranking_answer
    )
    return ChainReport(
        alpha1=a1,
        alpha2=a2,
        kappa1=k1,
        kappa2=k2,
        young_c=yc,
        young_d=yd,
        alpha_compare=alpha_compare,
        kappa_compare=kappa_compare,
        ranking_answer=ranking_answer,
        equations_hold=equations_hold,
        winner_checked=False,
        winner_answer=None,
        consistent=consistent,
    )


# -- file formats -----------------------------------------------------------


def parse_graph(text: str) -> Graph:
    """Parse the line-oriented graph format: 'vertices: ...' then 'edge: u v' lines."""
    vertices: tuple[str, ...] | None = None
    edges: list[tuple[str, str]] = []
    seen: set[frozenset[str]] = set()
    for lineno, head, rest in payload_lines(text, "vertices", "edge"):
        if vertices is None:
            vertices = tuple(rest.split())
            if not vertices:
                raise ParseError("empty vertex list", lineno)
            index = at_line(lineno, _index, vertices, "vertex")
            continue
        if head != "edge":
            raise ParseError(f"expected 'edge:' line, got {head!r}", lineno)
        endpoints = rest.split()
        if len(endpoints) != 2:
            raise ParseError(f"edge needs exactly two endpoints, got {rest!r}", lineno)
        u, v = endpoints
        at_line(lineno, _check_edge, u, v, index, seen)
        edges.append((u, v) if index[u] < index[v] else (v, u))
    return tuple.__new__(Graph, (vertices, tuple(edges)))  # every line is checked above


def parse_set_family(text: str) -> SetFamilyInstance:
    """Parse the set-family format: 'base: ...' then 'set: ...' lines."""
    base: tuple[str, ...] | None = None
    family: list[tuple[str, ...]] = []
    for lineno, head, rest in payload_lines(text, "base", "set"):
        if base is None:
            base = tuple(rest.split())
            if not base:
                raise ParseError("empty ground set", lineno)
            index = at_line(lineno, _index, base, "ground-set element")
            continue
        if head != "set":
            raise ParseError(f"expected 'set:' line, got {head!r}", lineno)
        member = _in_base_order(rest.split(), index)
        at_line(lineno, _check_member, member, index)
        family.append(member)
    return tuple.__new__(SetFamilyInstance, (base, tuple(family)))  # every line is checked above


def serialize_set_family(s: SetFamilyInstance) -> str:
    lines = ["base: " + " ".join(s.base)]
    for member in s.family:
        lines.append("set: " + " ".join(member))
    return "\n".join(lines) + "\n"


def serialize_mspc(inst: MSPCInstance) -> str:
    return serialize_set_family(inst.first) + "\n" + serialize_set_family(inst.second)
