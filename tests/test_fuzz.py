"""Property tests for the three file parsers and the CLI on arbitrary input.

Valid graphs and set families must round-trip; any text over a format's
tokens must either parse or raise ParseError; the CLI must answer every
such file, and every well-formed profile, under every verb that reads it
with an exit code, never a traceback.
"""
import contextlib
import io
import random
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from dodgsonyoung import (
    SCHEMES,
    Graph,
    ParseError,
    Profile,
    SetFamilyInstance,
    parse_graph,
    parse_profile,
    parse_set_family,
)
from dodgsonyoung.cli import run
from dodgsonyoung.reductions import serialize_set_family
from oracles import random_graph, random_packing_family

# Per format: the header head and its words, the heads of the other lines and
# their words.  Repeated entries are drawn more often, so that most files get
# past the header and break the rules of the lines after it.
FORMATS = {
    "profile": (
        "candidates:",
        ["a", "b", "c"] * 3 + ["a>b", "x", ""],
        ["voter:"] * 4
        + ["voter 2:", "voter 0:", "voter 99999999999999:", "voter x:", "voters:", "#", ""],
        ["a > b", "b > a", "a > b > c", "c > b > a", "a", "b", "c", "x", ">", ">>", ""],
    ),
    "graph": (
        "vertices:",
        ["u", "v", "w"] * 3 + ["x", ""],
        ["edge:"] * 4 + ["edges:", "#", ""],
        ["u", "v", "w", "x", "u-v", ""],
    ),
    "sets": (
        "base:",
        ["x1", "x2", "x3"] * 3 + ["zz", ""],
        ["set:"] * 4 + ["sets:", "#", ""],
        ["x1", "x2", "x3", "zz", ""],
    ),
}
# Every verb that reads a profile, under each scheme that it takes.
PROFILE_VERBS = [["condorcet"], ["amplify", "--candidate", "a", "--other", "b"]] + [
    [verb, "--scheme", scheme, *names]
    for verb, names in (
        ("score", []),
        ("winner", ["--candidate", "a"]),
        ("ranking", ["--candidate", "a", "--other", "b"]),
    )
    for scheme in SCHEMES
]
PARSERS = {
    "profile": (parse_profile, Profile),
    "graph": (parse_graph, Graph),
    "sets": (parse_set_family, SetFamilyInstance),
}


def texts(fmt):
    first, names, heads, body = FORMATS[fmt]
    header = st.lists(st.sampled_from(names), min_size=1, max_size=4).map(" ".join)
    header = st.one_of(header.map(lambda w: f"{first} {w}"), st.sampled_from(heads))
    words = st.lists(st.sampled_from(body), min_size=1, max_size=4).map(" ".join)
    lines = st.lists(st.tuples(st.sampled_from(heads), words).map(" ".join), max_size=6)
    return st.tuples(header, lines).map(lambda t: "\n".join([t[0], *t[1]]))


def any_file():
    return st.sampled_from(sorted(FORMATS)).flatmap(lambda fmt: st.tuples(st.just(fmt), texts(fmt)))


def well_formed_profiles():
    """Profiles that parse, over two or three candidates, some lines held by
    10^14 voters: fuzzed text rarely parses, so these carry the verbs past
    the parser."""
    heads = st.sampled_from(["voter:", "voter 2:", "voter 99999999999999:"])

    def over(names):
        line = st.tuples(heads, st.permutations(names)).map(lambda t: f"{t[0]} {' > '.join(t[1])}")
        lines = st.lists(line, min_size=1, max_size=4)
        return lines.map(lambda ls: "\n".join([f"candidates: {' '.join(names)}", *ls]))

    return st.sampled_from([("a", "b"), ("a", "b", "c")]).flatmap(over)


@given(st.integers(0, 10**9))
@settings(max_examples=60, deadline=None)
def test_graph_round_trip(seed):
    rng = random.Random(seed)
    g = random_graph(rng)
    # endpoints in either order: the parser normalizes them to vertex order
    edges = [(u, v) if rng.random() < 0.5 else (v, u) for u, v in g.edges]
    text = "vertices: " + " ".join(g.vertices) + "\n" + "".join(f"edge: {u} {v}\n" for u, v in edges)
    assert parse_graph(text) == g


@given(st.integers(0, 10**9))
@settings(max_examples=60, deadline=None)
def test_set_family_round_trip(seed):
    rng = random.Random(seed)
    fam = random_packing_family(rng, rng.randint(1, 4))
    assert parse_set_family(serialize_set_family(fam)) == fam


@given(any_file())
@settings(max_examples=300, deadline=None)
def test_parsers_raise_only_parse_errors(case):
    fmt, text = case
    parse, result_type = PARSERS[fmt]
    try:
        result = parse(text)
    except ParseError:
        return
    assert isinstance(result, result_type)


@given(
    st.one_of(any_file(), well_formed_profiles().map(lambda text: ("profile", text))),
    st.sampled_from(PROFILE_VERBS),
)
@settings(max_examples=100, deadline=None)
def test_cli_exit_codes_on_fuzzed_files(case, profile_verb):
    fmt, text = case
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / f"input.{fmt}"
        path.write_text(text, encoding="utf-8")
        if fmt == "profile":
            argv = [*profile_verb, "--profile", str(path)]
        else:
            flag = "--graph" if fmt == "graph" else "--sets"
            argv = ["reduce", "--emit", "mspc", f"{flag}1", str(path), f"{flag}2", str(path)]
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            code = run(argv)
    assert code in (0, 1, 2)
