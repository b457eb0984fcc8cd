import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dodgsonyoung import (
    ParseError,
    Profile,
    condorcet_winner,
    parse_profile,
    replicate,
    serialize_profile,
    tally,
)
from oracles import random_profile

CYCLE = "candidates: A B C\nvoter: A > B > C\nvoter: B > C > A\nvoter: C > A > B\n"


@st.composite
def profiles(draw, max_candidates=4, max_voters=6):
    seed = draw(st.integers(0, 10**9))
    return random_profile(random.Random(seed), max_candidates, max_voters)


class TestParse:
    def test_minimal(self):
        p = parse_profile("candidates: a b\nvoter: a > b")
        assert p.num_voters == 1
        assert p.voters[0][0] == ("a", "b")

    def test_multiplicity_expansion(self):
        p = parse_profile("candidates: a b c\nvoter 2: a > b > c\nvoter: c > b > a")
        assert p.num_voters == 3
        assert p.expanded() == (("a", "b", "c"), ("a", "b", "c"), ("c", "b", "a"))

    def test_comments_and_blanks(self):
        p = parse_profile("# header\n\ncandidates: a b\n# note\nvoter: b > a\n")
        assert p.num_voters == 1

    @pytest.mark.parametrize(
        "text,fragment,line",
        [
            ("candidates: a b\nvoter: a > a", "duplicate", 2),
            ("candidates: a b c\nvoter: a > b", "omits", 2),
            ("candidates: a b\nvoter: a > x", "unknown", 2),
            ("candidates: a b\nvoter 0: a > b", "positive", 2),
            ("candidates: a b\nvoter -2: a > b", "positive", 2),
            ("candidates: a b\nvoter two: a > b", "multiplicity", 2),
            ("candidates: a a\nvoter: a > a", "duplicate", 1),
            ("candidates:\nvoter: a", "empty candidate list", 1),
            ("voter: a > b", "candidates", 1),
            ("candidates: a b\nvoter: a >> b", "malformed", 2),
            # one line breaking two rules: the rule checked first wins
            ("candidates: a b\nvoter 0: a >> b", "multiplicity must be positive, got 0", 2),
            ("candidates: a b\nvoter: x > > a", "unknown candidate 'x'", 2),
            ("candidates: a b\nvoter: a > a > x", "duplicate candidate 'a' in order", 2),
            ("candidates: a a>b\nvoter: a > b", "invalid candidate name 'a>b'", 1),
            ("candidates: a b\nvote: a > b", "expected 'voter[ N]:' line, got 'vote'", 2),
            ("candidates: a b\nvoter 2 3: a > b", "expected 'voter[ N]:' line, got 'voter 2 3'", 2),
        ],
    )
    def test_errors_carry_line_numbers(self, text, fragment, line):
        with pytest.raises(ParseError) as err:
            parse_profile(text)
        assert fragment in str(err.value)
        assert f"line {line}" in str(err.value)

    def test_no_voters(self):
        with pytest.raises(ParseError, match="no voter"):
            parse_profile("candidates: a b\n")

    def test_empty(self):
        with pytest.raises(ParseError, match="no candidates"):
            parse_profile("# nothing here\n")


class TestSerialize:
    def test_round_trip_cycle(self):
        p = parse_profile(CYCLE)
        assert parse_profile(serialize_profile(p)) == p

    def test_round_trip_multiplicities(self):
        p = parse_profile("candidates: a b\nvoter 2: a > b\nvoter: b > a")
        assert parse_profile(serialize_profile(p)) == p

    @given(profiles())
    @settings(max_examples=60, deadline=None)
    def test_round_trip_random(self, p):
        assert parse_profile(serialize_profile(p)) == p

    def test_round_trip_generated_young_ranking_profile(self):
        from dodgsonyoung import MSPCInstance, mspc_to_young_ranking, set_family

        inst = MSPCInstance(
            set_family(["u1", "u2", "u3"], [["u1"], ["u2"], ["u3"]]),
            set_family(["w1", "w2", "w3"], [["w1"], ["w2"], ["w3"]]),
        )
        generated = mspc_to_young_ranking(inst).profile
        assert generated.num_voters == 14
        assert parse_profile(serialize_profile(generated)) == generated


class TestTally:
    def test_cycle_counts(self):
        t = tally(parse_profile(CYCLE))
        assert t.count("A", "B") == 2
        assert t.count("B", "C") == 2
        assert t.count("C", "A") == 2

    def test_single_voter(self):
        t = tally(parse_profile("candidates: a b\nvoter: a > b"))
        assert t.count("a", "b") == 1
        assert t.count("b", "a") == 0

    def test_diagonal_rejected(self):
        t = tally(parse_profile(CYCLE))
        with pytest.raises(ValueError):
            t.count("A", "A")

    @given(profiles(), st.integers(1, 3))
    @settings(max_examples=40, deadline=None)
    def test_complementarity_and_scaling(self, p, q):
        t = tally(p)
        n = p.num_voters
        for (u, v), cnt in t.as_dict().items():
            assert cnt + t.count(v, u) == n
        tq = tally(replicate(p, q))
        for pair, cnt in t.as_dict().items():
            assert tq.as_dict()[pair] == q * cnt


class TestCondorcetWinner:
    def test_cycle_has_none(self):
        assert condorcet_winner(parse_profile(CYCLE)) is None

    def test_single_voter(self):
        assert condorcet_winner(parse_profile("candidates: a b c\nvoter: a > b > c")) == "a"

    def test_tie_is_not_strict_majority(self):
        p = parse_profile("candidates: a b\nvoter: a > b\nvoter: b > a")
        assert condorcet_winner(p) is None

    def test_empty_electorate(self):
        p = Profile(parse_profile(CYCLE).candidates, ())
        assert p.num_voters == 0
        assert condorcet_winner(p) is None

    @given(profiles())
    @settings(max_examples=60, deadline=None)
    def test_winner_has_all_strict_majorities(self, p):
        w = condorcet_winner(p)
        if w is not None:
            t = tally(p)
            for d in p.candidates:
                if d != w:
                    assert 2 * t.count(w, d) > p.num_voters


class TestReplicate:
    def test_identity(self):
        p = parse_profile(CYCLE)
        assert replicate(p, 1) == p

    def test_counts_scale(self):
        p = replicate(parse_profile(CYCLE), 2)
        assert p.num_voters == 6
        t = tally(p)
        assert t.count("A", "B") == 4

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            replicate(parse_profile(CYCLE), 0)

    @given(profiles(), st.integers(1, 4))
    @settings(max_examples=40, deadline=None)
    def test_winner_invariant(self, p, q):
        assert condorcet_winner(replicate(p, q)) == condorcet_winner(p)


class TestProfileValidation:
    def test_order_must_be_permutation(self):
        with pytest.raises(ValueError):
            Profile(("a", "b"), ((("a",), 1),))

    def test_multiplicity_positive(self):
        with pytest.raises(ValueError):
            Profile(("a", "b"), ((("a", "b"), 0),))

    def test_bad_names(self):
        with pytest.raises(ValueError):
            Profile(("a", "b>c"), ())
