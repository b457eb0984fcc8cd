import random
import re

import pytest

from dodgsonyoung import (
    CapExceededError,
    MSPCInstance,
    ParseError,
    Profile,
    alpha,
    amplify_for_winner,
    graph,
    inc_to_mspc,
    kappa,
    mspc_to_young_ranking,
    parse_graph,
    parse_profile,
    parse_set_family,
    serialize_profile,
    set_family,
    validate_young_witness,
    verify_reduction_chain,
    young_ranking,
    young_score_bruteforce,
    young_score_with_subset,
)
from dodgsonyoung import lp as lp_module, reductions
from dodgsonyoung.exact import young_rows
from dodgsonyoung.cli import run
from dodgsonyoung.reductions import (
    Graph,
    SetFamilyInstance,
    serialize_mspc,
    serialize_set_family,
    young_scores_bruteforce_all,
)
from oracles import random_graph, random_packing_family, random_profile

K3 = graph(["u", "v", "w"], [("u", "v"), ("v", "w"), ("u", "w")])
P3 = graph(["a", "b", "c"], [("a", "b"), ("b", "c")])
STAR3 = graph(["h", "l1", "l2", "l3"], [("h", "l1"), ("h", "l2"), ("h", "l3")])
STAR4 = graph(["h", "l1", "l2", "l3", "l4"], [("h", "l1"), ("h", "l2"), ("h", "l3"), ("h", "l4")])
SINGLETONS_1 = set_family(["u1", "u2", "u3"], [["u1"], ["u2"], ["u3"]])
SINGLETONS_2 = set_family(["w1", "w2", "w3"], [["w1"], ["w2"], ["w3"]])


class TestAlpha:
    def test_triangle(self):
        assert alpha(K3) == 1

    def test_path(self):
        assert alpha(P3) == 2

    def test_edgeless(self):
        assert alpha(graph(["a", "b", "c", "d"], [])) == 4

    def test_cap(self):
        big = graph([f"v{i}" for i in range(17)], [])
        with pytest.raises(CapExceededError):
            alpha(big)


class TestKappa:
    def test_disjoint_singletons(self):
        assert kappa(SINGLETONS_1) == 3

    def test_single_set(self):
        assert kappa(set_family(["x"], [["x"]])) == 1

    def test_chain(self):
        fam = set_family(
            ["x1", "x2", "x3", "x4"], [["x1", "x2"], ["x2", "x3"], ["x3", "x4"]]
        )
        assert kappa(fam) == 2

    def test_empty_member_set_rejected(self):
        with pytest.raises(ValueError):
            SetFamilyInstance(("x",), ((),))

    def test_cap(self):
        fam = set_family(["x"], [["x"]] * 17)
        with pytest.raises(CapExceededError):
            kappa(fam)


class TestIncToMspc:
    def test_triangle(self):
        inst = inc_to_mspc(K3, K3)
        assert all(len(member) == 2 for member in inst.first.family)
        assert len(inst.first.family) == 3
        assert kappa(inst.first) == 1 == alpha(K3)

    def test_path(self):
        inst = inc_to_mspc(P3, P3)
        assert inst.first.base == ("a-b", "b-c")
        assert inst.first.family == (("a-b",), ("a-b", "b-c"), ("b-c",))
        assert kappa(inst.first) == 2 == alpha(P3)

    def test_single_edge(self):
        g = graph(["a", "b"], [("a", "b")])
        inst = inc_to_mspc(g, g)
        assert inst.first.family == (("a-b",), ("a-b",))
        assert kappa(inst.first) == 1 == alpha(g)

    def test_isolated_vertex_rejected(self):
        g = graph(["a", "b", "c"], [("a", "b")])
        with pytest.raises(ValueError, match="isolated"):
            inc_to_mspc(g, g)

    def test_edge_token_collision_rejected(self):
        g = graph(["a-b", "c", "a", "b-c"], [("a-b", "c"), ("a", "b-c")])
        with pytest.raises(ValueError, match="edge token collision"):
            inc_to_mspc(g, g)

    def test_alpha_equals_kappa_random(self):
        rng = random.Random(101)
        for _ in range(30):
            g1 = random_graph(rng)
            g2 = random_graph(rng)
            inst = inc_to_mspc(g1, g2)
            assert alpha(g1) == kappa(inst.first)
            assert alpha(g2) == kappa(inst.second)


class TestMspcToYoungRanking:
    def test_disjoint_singletons_instance(self):
        out = mspc_to_young_ranking(MSPCInstance(SINGLETONS_1, SINGLETONS_2))
        assert out.profile.num_voters == 14
        assert len(out.profile.candidates) == 10
        assert young_score_bruteforce(out.profile, "c") == 7
        assert young_score_bruteforce(out.profile, "d") == 7
        assert young_ranking(out.profile, "c", "d")
        assert young_ranking(out.profile, "d", "c")

    def test_unbalanced_packings(self):
        s1 = set_family(["e1", "e2", "e3", "e4"], [["e1"], ["e2"], ["e3"], ["e4"]])
        out = mspc_to_young_ranking(MSPCInstance(s1, SINGLETONS_2))
        assert young_score_bruteforce(out.profile, "c") == 9
        assert young_score_bruteforce(out.profile, "d") == 7
        assert young_ranking(out.profile, "c", "d")
        assert not young_ranking(out.profile, "d", "c")

    def test_kappa_guard(self):
        two = set_family(["p", "q"], [["p"], ["q"]])
        with pytest.raises(ValueError, match="exceed 2"):
            mspc_to_young_ranking(MSPCInstance(two, SINGLETONS_2))

    def test_empty_family_rejected(self):
        empty = SetFamilyInstance(("p",), ())
        with pytest.raises(ValueError, match="nonempty"):
            mspc_to_young_ranking(MSPCInstance(empty, SINGLETONS_2))

    def test_voter_forms_partition(self):
        out = mspc_to_young_ranking(MSPCInstance(SINGLETONS_1, SINGLETONS_2))
        counts = {form: out.form_of_voter.count(form) for form in range(1, 7)}
        assert counts == {1: 3, 2: 2, 3: 2, 4: 3, 5: 2, 6: 2}
        assert set(out.profile.candidates) == {"c", "d", "a", "b"} | {
            cand for _, cand in out.first_elements
        } | {cand for _, cand in out.second_elements}

    def test_form_one_order_shape(self):
        out = mspc_to_young_ranking(MSPCInstance(SINGLETONS_1, SINGLETONS_2))
        first_voter = out.profile.expanded()[out.set_voters_first[0] - 1]
        # E = {x1}: E > a > c > complement > B2 > b > d
        assert first_voter == ("x1", "a", "c", "x2", "x3", "y1", "y2", "y3", "b", "d")

    def test_complement_taken_in_second_base(self):
        out = mspc_to_young_ranking(MSPCInstance(SINGLETONS_1, SINGLETONS_2))
        fourth = out.profile.expanded()[out.set_voters_second[0] - 1]
        # F = {w1}: F > b > d > complement inside B2 > B1 > a > c
        assert fourth == ("y1", "b", "d", "y2", "y3", "x1", "x2", "x3", "a", "c")

    def test_optimal_witness_structure(self):
        rng = random.Random(103)
        for _ in range(6):
            s1 = random_packing_family(rng, rng.choice((3, 4)))
            s2 = random_packing_family(rng, rng.choice((3, 4)))
            out = mspc_to_young_ranking(MSPCInstance(s1, s2))
            k1 = kappa(s1)
            score, kept = young_score_with_subset(out.profile, "c")
            assert score == 2 * k1 + 1
            voter_to_set = {v: t for t, v in enumerate(out.set_voters_first)}
            shape = {}  # distinct order -> (voter form, member set for form 1)
            for i, order in enumerate(out.profile.expanded(), 1):
                form = out.form_of_voter[i - 1]
                member = s1.family[voter_to_set[i]] if form == 1 else None
                assert shape.setdefault(order, (form, member)) == (form, member)
            groups = list(shape)
            voters = [shape[groups[g]] for g, count in kept for _ in range(count)]
            forms = [form for form, _ in voters]
            lam = sum(1 for f in forms if f in (2, 3))
            assert lam == k1 + 1
            assert sum(1 for f in forms if f == 1) == lam - 1
            assert all(f not in (4, 5, 6) for f in forms)
            chosen = [member for form, member in voters if form == 1]
            seen = set()
            for member in chosen:
                assert not (seen & set(member))
                seen |= set(member)

    def test_deterministic_bytes(self):
        a = mspc_to_young_ranking(MSPCInstance(SINGLETONS_1, SINGLETONS_2))
        b = mspc_to_young_ranking(MSPCInstance(SINGLETONS_1, SINGLETONS_2))
        assert serialize_profile(a.profile) == serialize_profile(b.profile)
        assert a == b


class TestAmplify:
    def test_three_candidates_three_voters(self):
        p = parse_profile(
            "candidates: c d g\nvoter: g > c > d\nvoter: c > d > g\nvoter: d > g > c\n"
        )
        amp = amplify_for_winner(p, "c", "d")
        assert len(amp.candidates) == 5
        before = young_scores_bruteforce_all(p)
        after = young_scores_bruteforce_all(amp)
        assert after["c"] == before["c"] and after["d"] == before["d"]
        assert all(score <= 1 for name, score in after.items() if name not in ("c", "d"))

    def test_rotation_blocks_follow_voter_index(self):
        p = parse_profile("candidates: c d g\nvoter: g > c > d\nvoter 2: g > d > c\n")
        amp = amplify_for_winner(p, "c", "d")
        orders = amp.expanded()
        assert orders[0][:3] == ("g^0", "g^1", "g^2")
        assert orders[1][:3] == ("g^1", "g^2", "g^0")
        assert orders[2][:3] == ("g^2", "g^0", "g^1")

    def test_orders_remain_strict_total(self):
        rng = random.Random(107)
        for _ in range(10):
            p = random_profile(rng, 4, 3, min_voters=2)
            c, d = rng.sample(p.candidates, 2)
            amp = amplify_for_winner(p, c, d)
            assert amp.num_voters == p.num_voters
            assert len(amp.candidates) == 2 + (len(p.candidates) - 2) * p.num_voters
            for order in amp.expanded():
                assert sorted(order) == sorted(amp.candidates)

    def test_identity_when_only_designated_candidates(self):
        p = parse_profile("candidates: c d\nvoter: c > d\nvoter: d > c\n")
        assert amplify_for_winner(p, "c", "d") == p

    def test_single_voter_refused(self, tmp_path, capsys):
        text = "candidates: c d g\nvoter: g > c > d\n"
        with pytest.raises(ValueError, match="single-voter rotation is degenerate"):
            amplify_for_winner(parse_profile(text), "c", "d")
        path = tmp_path / "single.elect"
        path.write_text(text)
        assert run(["amplify", "--profile", str(path), "--candidate", "c", "--other", "d"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: single-voter rotation is degenerate\n"

    def test_designated_validation(self):
        p = parse_profile("candidates: c d g\nvoter: g > c > d\nvoter: c > d > g\n")
        with pytest.raises(ValueError):
            amplify_for_winner(p, "c", "c")
        with pytest.raises(ValueError):
            amplify_for_winner(p, "c", "z")
        with pytest.raises(ValueError, match="unknown candidate 'z'"):
            amplify_for_winner(p, "z", "d")

    def test_empty_electorate_rejected(self):
        with pytest.raises(ValueError, match="cannot amplify an empty electorate"):
            amplify_for_winner(Profile(("c", "d", "g"), ()), "c", "d")

    def test_candidate_name_collision_rejected(self):
        p = parse_profile("candidates: g^1 d g\nvoter: g > g^1 > d\nvoter: d > g > g^1\n")
        with pytest.raises(ValueError, match="candidate name collision"):
            amplify_for_winner(p, "g^1", "d")

    def test_young_rows_keep_their_size_on_the_amplified_profile(self):
        # c (or d) beats every g^t exactly when it beats g, so amplifying adds
        # only rival rows that coincide with g's row, and no column.
        red = mspc_to_young_ranking(inc_to_mspc(STAR4, STAR3))
        amp = amplify_for_winner(red.profile, red.c, red.d)
        assert len(amp.candidates) > len(red.profile.candidates)
        for x in (red.c, red.d):
            plain = young_rows(red.profile, x, weak=False)
            amplified = young_rows(amp, x, weak=False)
            assert (len(amplified[0]), len(amplified[2])) == (len(plain[0]), len(plain[2]))

    def test_deterministic_bytes(self):
        p = parse_profile("candidates: c d g\nvoter: g > c > d\nvoter: c > d > g\n")
        assert serialize_profile(amplify_for_winner(p, "c", "d")) == serialize_profile(
            amplify_for_winner(p, "c", "d")
        )


class TestVerifyChain:
    def test_equal_graphs_tie(self):
        report = verify_reduction_chain(STAR3, STAR3)
        assert report.consistent
        assert report.alpha_compare and report.kappa_compare and report.ranking_answer
        assert report.alpha1 == report.kappa1 == 3
        assert report.young_c == report.young_d == 7
        assert report.equations_hold

    def test_first_side_larger(self):
        report = verify_reduction_chain(STAR4, STAR3)
        assert report.consistent
        assert report.alpha1 == 4 and report.alpha2 == 3
        assert report.young_c == 9 and report.young_d == 7
        assert report.ranking_answer

    def test_second_side_larger(self):
        report = verify_reduction_chain(STAR3, STAR4)
        assert report.consistent
        assert not report.ranking_answer
        # the mirrored run answers true
        assert verify_reduction_chain(STAR4, STAR3).ranking_answer

    def test_winner_stage_skipped_when_too_large(self):
        report = verify_reduction_chain(STAR3, STAR3)
        assert not report.winner_checked
        assert report.winner_answer is None

    def test_winner_stage_is_sized_without_amplifying(self, monkeypatch):
        expected = verify_reduction_chain(STAR3, STAR4)

        def refuse(*args, **kwargs):
            raise AssertionError("amplified a profile whose Winner stage is skipped")

        monkeypatch.setattr(reductions, "amplify_for_winner", refuse)
        assert verify_reduction_chain(STAR3, STAR4) == expected

    def test_winner_stage_logic_on_small_amplified_profile(self):
        p = parse_profile(
            "candidates: c d g\nvoter: g > c > d\nvoter: c > d > g\nvoter: d > g > c\n"
        )
        amp = amplify_for_winner(p, "c", "d")
        scores = young_scores_bruteforce_all(amp)
        assert scores["c"] >= max(scores.values())

    def test_sixteen_vertex_pair_merged_program_sizes_and_scores(self, monkeypatch):
        # The seed-0 pair of G(16, 1/2) graphs: 66 voters in 36 distinct orders
        # and 118 candidates.  Merging orders by the rivals c (or d) beats and
        # collapsing identical rival rows leaves 19 columns and 47/71 rows
        # (36 columns and 117 rows per order and rival).  Its Young programs
        # are the deepest branch-and-bound trees tier-1 solves, so their node
        # (`solve_lp` call) and `_Simplex._pivot` counts are pinned too, and
        # so is the number of slack-basis builds (`_Simplex.__init__` calls):
        # one per search, since every child starts from its parent's simplex.
        nodes, pivots, builds = [], [], []
        solve_lp, pivot = lp_module.solve_lp, lp_module._Simplex._pivot
        init = lp_module._Simplex.__init__

        def counted_solve_lp(*args):
            nodes.append(None)
            return solve_lp(*args)

        def counted_pivot(self, *args):
            pivots.append(None)
            return pivot(self, *args)

        def counted_init(self, lp):
            builds.append(None)
            init(self, lp)

        monkeypatch.setattr(lp_module, "solve_lp", counted_solve_lp)
        monkeypatch.setattr(lp_module._Simplex, "_pivot", counted_pivot)
        monkeypatch.setattr(lp_module._Simplex, "__init__", counted_init)
        rng = random.Random(0)
        names = [f"v{i}" for i in range(16)]

        def gnp():
            pairs = [(names[i], names[j]) for i in range(16) for j in range(i + 1, 16)]
            return graph(names, [e for e in pairs if rng.random() < 0.5])

        red = mspc_to_young_ranking(inc_to_mspc(gnp(), gnp()))
        p = red.profile
        assert (p.num_voters, len(p.voters), len(p.candidates)) == (66, 36, 118)
        sizes = [(len(v), len(rows)) for v, _, rows in (young_rows(p, x, weak=False) for x in (red.c, red.d))]
        assert sizes == [(19, 47), (19, 71)]
        searches = []
        for x, k in ((red.c, red.kappa1), (red.d, red.kappa2)):
            nodes.clear()
            pivots.clear()
            builds.clear()
            score, kept = young_score_with_subset(p, x)
            searches.append((len(nodes), len(pivots), len(builds)))
            assert score == 2 * k + 1
            assert validate_young_witness(p, x, score, kept)
        assert (red.kappa1, red.kappa2) == (5, 4)
        assert searches == [(25, 108, 1), (31, 129, 1)]

    def test_guard_propagates(self):
        with pytest.raises(ValueError, match="exceed 2"):
            verify_reduction_chain(P3, STAR3)


class TestGraphParsing:
    def test_round_trip_shape(self):
        g = parse_graph("# a path\nvertices: a b c\nedge: a b\nedge: b c\n")
        assert g == P3

    def test_edge_normalized_to_vertex_order(self):
        g = parse_graph("vertices: a b\nedge: b a\n")
        assert g.edges == (("a", "b"),)

    @pytest.mark.parametrize(
        "text,fragment",
        [
            ("vertices: a b\nedge: a x", "unknown"),
            ("vertices: a b\nedge: a a", "loop"),
            ("vertices: a b\nedge: a b\nedge: b a", "duplicate"),
            ("vertices: a a\nedge: a a", "duplicate"),
            ("edge: a b", "vertices"),
            ("vertices: a b\nedge: a", "two endpoints"),
            ("vertices: a b\nedge: x x", "line 2: edge ('x', 'x') uses an unknown vertex"),
            ("# no names\nvertices:\nedge: a b", "line 2: empty vertex list"),
            ("vertices: a b\nvertices: a b", "line 2: expected 'edge:' line, got 'vertices'"),
        ],
    )
    def test_errors(self, text, fragment):
        with pytest.raises(ParseError, match=re.escape(fragment)):
            parse_graph(text)


class TestConstructionRoutes:
    """The record constructors normalize like the builders and the parsers."""

    def test_graph_endpoints_put_in_vertex_order(self):
        edges = (("b", "a"), ("c", "b"), ("a", "d"))
        g = Graph(("a", "b", "c", "d"), edges)
        assert g == graph(["a", "b", "c", "d"], [list(e) for e in edges])
        assert g == parse_graph("vertices: a b c d\nedge: b a\nedge: c b\nedge: a d\n")
        assert g.edges == (("a", "b"), ("b", "c"), ("a", "d"))
        assert inc_to_mspc(g, g).first.base == ("a-b", "b-c", "a-d")

    def test_member_sets_put_in_base_order(self):
        fam = SetFamilyInstance(("x1", "x2", "x3"), (("x3", "x1"), ("x2",)))
        assert fam == set_family(["x1", "x2", "x3"], [["x3", "x1"], ["x2"]])
        assert fam == parse_set_family("base: x1 x2 x3\nset: x3 x1\nset: x2\n")
        assert serialize_set_family(fam) == "base: x1 x2 x3\nset: x1 x3\nset: x2\n"


class TestSetFamilyParsing:
    def test_round_trip(self):
        fam = parse_set_family("base: x1 x2 x3\nset: x1\nset: x2 x3\n")
        assert fam == set_family(["x1", "x2", "x3"], [["x1"], ["x2", "x3"]])
        assert parse_set_family(serialize_set_family(fam)) == fam

    def test_member_sets_sorted_by_base_order(self):
        fam = parse_set_family("base: x1 x2 x3\nset: x3 x1\n")
        assert fam.family == (("x1", "x3"),)

    @pytest.mark.parametrize(
        "text,fragment",
        [
            ("base: x1\nset: x2", "not in the ground set"),
            ("base: x1\nset:", "nonempty"),
            ("base: x1 x1\nset: x1", "duplicate"),
            ("set: x1", "base"),
            ("base: x1\nset: x1 x1", "duplicate"),
            (
                "base: x1 x2\nset: x2 x1 x2",
                "line 2: duplicate element in member set ('x1', 'x2', 'x2')",
            ),
            ("base: x1\nsets: x1", "line 2: expected 'set:' line, got 'sets'"),
            ("base:\nset: x1", "line 1: empty ground set"),
        ],
    )
    def test_errors(self, text, fragment):
        with pytest.raises(ParseError, match=re.escape(fragment)):
            parse_set_family(text)

    def test_one_line_per_element_of_a_large_base(self):
        base = [f"e{i}" for i in range(20_000)]
        text = "base: " + " ".join(base) + "\n" + "".join(f"set: {e}\n" for e in reversed(base))
        assert parse_set_family(text) == set_family(base, [[e] for e in reversed(base)])

    def test_serialize_mspc_contains_both_families(self):
        text = serialize_mspc(MSPCInstance(SINGLETONS_1, SINGLETONS_2))
        assert text.count("base:") == 2
        assert text.count("set:") == 6
