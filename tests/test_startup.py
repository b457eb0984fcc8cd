"""What a process imports: the package namespace loads the reduction chain
lazily, and each CLI verb imports only what it runs.

Every case runs in a fresh interpreter with ``-S``, so that modules which a
site hook may import do not count against the package.  The checks read
``sys.modules``, never a clock.
"""
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "tests" / "fixtures"

# The public names of the package (`dir` without underscores, and
# `from dodgsonyoung import *`), as they were when it imported every module,
# less `IntegerProgram`, which the pure-integer `solve_ilp` made redundant.
PUBLIC = [
    "CapExceededError", "ChainReport", "Constraint", "Graph", "LPSolution",
    "LinearProgram", "MSPCInstance", "PairwiseTally", "ParseError", "Profile", "SCHEMES",
    "Scheme", "SetFamilyInstance", "Variable", "YoungReductionOutput", "alpha",
    "amplify_for_winner", "condorcet_winner", "dodgson_ranking", "dodgson_score",
    "dodgson_score_bruteforce", "dodgson_score_with_moves", "dodgson_star_ranking",
    "dodgson_star_score", "dodgson_star_winner", "dodgson_winner", "errors", "exact",
    "gain_matrix", "graph", "homogeneity_check", "homogeneous", "inc_to_mspc", "kappa",
    "linear_program", "lp", "mspc_to_young_ranking", "parse_graph", "parse_profile",
    "parse_set_family", "profiles", "reductions", "replicate", "serialize_profile",
    "set_family", "solve_ilp", "solve_lp", "tally", "validate_dodgson_witness",
    "validate_young_witness", "verify_reduction_chain", "winner_set", "young_ranking",
    "young_score", "young_score_bruteforce", "young_score_with_subset", "young_star_ranking",
    "young_star_score", "young_star_winner", "young_winner",
]


def _fresh(code: str):
    """Run ``code`` in a new interpreter and return the JSON it prints last."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run(
        [sys.executable, "-S", "-c", code], cwd=FIXTURES, env=env,
        capture_output=True, text=True, check=True,
    ).stdout
    return json.loads(out.splitlines()[-1])


class TestLazyNamespace:
    def test_import_does_not_load_the_reduction_chain(self):
        loaded = _fresh(
            "import json, sys, dodgsonyoung\n"
            "print(json.dumps('dodgsonyoung.reductions' in sys.modules))"
        )
        assert loaded is False

    def test_public_surface_is_unchanged(self):
        got = _fresh(
            "import json, dodgsonyoung as dy\n"
            "before = [n for n in dir(dy) if not n.startswith('_')]\n"
            "ns = {}\n"
            "exec('from dodgsonyoung import *', ns)\n"
            "star = sorted(n for n in ns if n != '__builtins__')\n"
            "after = [n for n in dir(dy) if not n.startswith('_')]\n"
            "print(json.dumps([before, star, after]))"
        )
        assert got == [PUBLIC, PUBLIC, PUBLIC]

    def test_names_resolve_through_the_package(self):
        got = _fresh(
            "import json, sys, dodgsonyoung as dy\n"
            "g = dy.parse_graph(open('star3.graph').read())\n"
            "from dodgsonyoung import reductions\n"
            "same = dy.Graph is reductions.Graph and dy.reductions is reductions\n"
            "print(json.dumps([dy.alpha(g), same, 'dodgsonyoung.reductions' in sys.modules]))"
        )
        assert got == [3, True, True]

    def test_unknown_attribute_raises(self):
        import dodgsonyoung

        with pytest.raises(AttributeError, match="no attribute 'nonesuch'"):
            dodgsonyoung.nonesuch


SCORING_VERBS = {
    "score": ["score", "--scheme", "young", "--profile", "cycle.elect"],
    "winner": ["winner", "--scheme", "dodgson", "--profile", "cycle.elect", "--candidate", "A"],
    "ranking": ["ranking", "--scheme", "young-star", "--profile", "cycle.elect",
                "--candidate", "A", "--other", "B", "--format", "json"],
    "condorcet": ["condorcet", "--profile", "single.elect"],
    "convergence": ["convergence", "--scheme", "dodgson-star", "--profile", "cycle.elect",
                    "--candidate", "A", "--q", "1,2"],
}
VERIFY = ["verify", "--graph1", "star3.graph", "--graph2", "star4.graph"]


def _loaded_after_run(argv, modules):
    return _fresh(
        "import json, sys\n"
        "from dodgsonyoung import cli\n"
        f"code = cli.run({argv!r})\n"
        f"print(json.dumps([code, [m for m in {modules!r} if m in sys.modules]]))"
    )


@pytest.mark.parametrize("verb", sorted(SCORING_VERBS))
def test_scoring_verbs_load_neither_the_chain_nor_dataclasses(verb):
    modules = ["dodgsonyoung.reductions", "dataclasses", "inspect"]
    assert _loaded_after_run(SCORING_VERBS[verb], modules) == [0, []]


def test_verify_does_not_load_dataclasses():
    modules = ["dodgsonyoung.reductions", "dataclasses"]
    assert _loaded_after_run(VERIFY, modules) == [0, ["dodgsonyoung.reductions"]]
