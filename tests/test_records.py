"""Records are named tuples: their repr, equality, hashing and immutability,
and the parsers that build them check each input line once."""
import copy
import pickle
from fractions import Fraction as F

import pytest

from dodgsonyoung import profiles, reductions
from dodgsonyoung.lp import (
    Constraint,
    LPSolution,
    Variable,
    linear_program,
    solve_lp,
)
from dodgsonyoung.profiles import Profile, parse_profile, tally
from dodgsonyoung.reductions import (
    Graph,
    MSPCInstance,
    SetFamilyInstance,
    parse_graph,
    parse_set_family,
    verify_reduction_chain,
)

CYCLE = "candidates: A B C\nvoter: A > B > C\nvoter: B > C > A\nvoter: C > A > B\n"
STAR3 = "vertices: h l1 l2 l3\nedge: h l1\nedge: h l2\nedge: l3 h\n"


def _program():
    return linear_program("max", [(0, 3), (0, 5)], [1, 2], [({0: 2, 1: 3}, "<=", 7)])


# Taken from the frozen dataclasses these records replaced; the LP records
# have since dropped their column names.
REPRS = [
    (lambda: Variable(0, F(5, 2)),
     "Variable(lower=Fraction(0, 1), upper=Fraction(5, 2))"),
    (lambda: Constraint({0: 1, 2: F(-1, 3)}, "<=", 3),
     "Constraint(coeffs=((0, Fraction(1, 1)), (2, Fraction(-1, 3))), relation='<=', rhs=Fraction(3, 1))"),
    (_program,
     "LinearProgram(direction='max', variables=(Variable(lower=Fraction(0, 1), "
     "upper=Fraction(3, 1)), Variable(lower=Fraction(0, 1), upper=Fraction(5, 1))), "
     "objective=(Fraction(1, 1), Fraction(2, 1)), constraints=(Constraint(coeffs=((0, "
     "Fraction(2, 1)), (1, Fraction(3, 1))), relation='<=', rhs=Fraction(7, 1)),))"),
    (lambda: solve_lp(_program()),
     "LPSolution(status='optimal', assignment={0: Fraction(0, 1), 1: Fraction(7, 3)}, "
     "objective_value=Fraction(14, 3))"),
    (lambda: LPSolution("infeasible"),
     "LPSolution(status='infeasible', assignment={}, objective_value=None)"),
    (lambda: parse_profile(CYCLE),
     "Profile(candidates=('A', 'B', 'C'), voters=((('A', 'B', 'C'), 1), (('B', 'C', 'A'), 1), "
     "(('C', 'A', 'B'), 1)))"),
    (lambda: parse_graph(STAR3),
     "Graph(vertices=('h', 'l1', 'l2', 'l3'), edges=(('h', 'l1'), ('h', 'l2'), ('h', 'l3')))"),
    (lambda: verify_reduction_chain(parse_graph(STAR3), parse_graph(STAR3)),
     "ChainReport(alpha1=3, alpha2=3, kappa1=3, kappa2=3, young_c=7, young_d=7, "
     "alpha_compare=True, kappa_compare=True, ranking_answer=True, equations_hold=True, "
     "winner_checked=False, winner_answer=None, consistent=True)"),
]


@pytest.mark.parametrize("build,expected", REPRS, ids=[r.split("(")[0] for _, r in REPRS])
def test_repr_is_unchanged(build, expected):
    assert repr(build()) == expected


def _family():
    return parse_set_family("base: u1 u2\nset: u1\nset: u2\n")


HASHABLE = {
    "Variable": lambda: Variable(0, 1),
    "Constraint": lambda: Constraint({0: 1, 2: 2}, ">=", 1),
    "LinearProgram": _program,
    "Profile": lambda: parse_profile(CYCLE),
    "PairwiseTally": lambda: tally(parse_profile(CYCLE)),
    "Graph": lambda: parse_graph(STAR3),
    "SetFamilyInstance": _family,
    "MSPCInstance": lambda: MSPCInstance(_family(), _family()),
    "ChainReport": lambda: verify_reduction_chain(parse_graph(STAR3), parse_graph(STAR3)),
}


@pytest.mark.parametrize("name", sorted(HASHABLE))
def test_equal_records_are_equal_and_hash_equal(name):
    a, b = HASHABLE[name](), HASHABLE[name]()
    assert a is not b
    assert a == b and hash(a) == hash(b)


@pytest.mark.parametrize("name", sorted(HASHABLE))
def test_records_are_tuples_of_their_fields(name):
    record = HASHABLE[name]()
    assert record == tuple(record) == tuple(getattr(record, f) for f in record.__match_args__)


@pytest.mark.parametrize("name", sorted(HASHABLE) + ["LPSolution"])
def test_fields_cannot_be_assigned(name):
    record = HASHABLE[name]() if name in HASHABLE else LPSolution("infeasible")
    for field in record.__match_args__:
        with pytest.raises(AttributeError):
            setattr(record, field, None)
    with pytest.raises(AttributeError):
        record.extra = None


@pytest.mark.parametrize("dup", [copy.copy, copy.deepcopy, lambda r: pickle.loads(pickle.dumps(r))])
def test_constraint_copies_keep_pairs_and_width(dup):
    for con in (Constraint({1: 2, 2: F(1, 2)}, "<=", 3), Constraint({4: 1}, ">=", 0), Constraint({}, "<=", 0)):
        twin = dup(con)
        assert twin == con and type(twin) is Constraint


def test_solutions_do_not_share_an_assignment():
    a, b = LPSolution("infeasible"), LPSolution("infeasible")
    assert a.assignment == b.assignment == {}
    assert a.assignment is not b.assignment
    assert solve_lp(_program()).assignment[1] == F(7, 3)


def test_tracer_binds_expanded_on_the_profile_class():
    # bench/tracing.py rebinds Profile.expanded through the class dict
    assert callable(Profile.__dict__["expanded"])


def _counting(monkeypatch, module, name):
    calls = []
    check = getattr(module, name)

    def counted(*args):
        calls.append(args)
        return check(*args)

    monkeypatch.setattr(module, name, counted)
    return calls


class TestParseOnce:
    """Each record line is checked once, by the parser; the record is then
    built without its constructor checking every line again."""

    def test_profile(self, monkeypatch):
        calls = _counting(monkeypatch, profiles, "_check_voter")
        p = parse_profile(CYCLE + "voter 4: B > A > C\n")
        assert len(calls) == len(p.voters) == 4

    def test_graph(self, monkeypatch):
        calls = _counting(monkeypatch, reductions, "_check_edge")
        g = parse_graph(STAR3)
        assert len(calls) == len(g.edges) == 3
        assert g.edges[-1] == ("h", "l3")  # the parser puts endpoints in vertex order
        assert g == Graph(g.vertices, g.edges)

    def test_set_family(self, monkeypatch):
        calls = _counting(monkeypatch, reductions, "_check_member")
        fam = parse_set_family("base: u1 u2 u3\nset: u2 u1\nset: u3\n")
        assert len(calls) == len(fam.family) == 2
        assert fam == SetFamilyInstance(fam.base, fam.family)


class TestReplaceChecks:
    """namedtuple's `_replace` and `_make` go through each record's checks,
    as they do for the LP records."""

    @pytest.mark.parametrize(
        "build",
        [
            lambda: parse_profile("candidates: a b c\nvoter: a > b > c\nvoter: b > c > a\n")._replace(
                voters=((("a", "a", "b"), 1),)),
            lambda: Profile._make(((), ())),
            lambda: parse_graph(STAR3)._replace(edges=(("h", "zz"),)),
            lambda: _family()._replace(family=(("u3",),)),
        ],
        ids=["profile-order", "profile-make", "graph-edge", "set-family-member"],
    )
    def test_bad_fields_raise(self, build):
        with pytest.raises(ValueError):
            build()

    def test_valid_replace_still_works(self):
        p = parse_profile(CYCLE)._replace(voters=((("C", "B", "A"), 2),))
        assert (type(p), p.num_voters) == (Profile, 2)
        g = parse_graph(STAR3)._replace(edges=(("l2", "l1"),))
        assert (type(g), g.edges) == (Graph, (("l1", "l2"),))  # endpoints put in vertex order
        fam = _family()._replace(family=(("u2", "u1"),))
        assert (type(fam), fam.family) == (SetFamilyInstance, (("u1", "u2"),))
