"""Edge-list text format round-trips and parse diagnostics."""

import pytest
from hypothesis import given, settings, strategies as st

from hlmenger import build_graph, edgelist

from util import corpus, random_graph


def test_dumps_layout():
    g = build_graph(3, [(1, 2), (0, 2)], {0: "00", 1: "01", 2: "10"})
    assert edgelist.dumps(g) == (
        "p 3 2\n"
        "e 0 2\n"
        "e 1 2\n"
        "l 0 00\n"
        "l 1 01\n"
        "l 2 10\n"
    )


def test_round_trip_corpus():
    for _, h in corpus(4):
        g = h.graph
        assert edgelist.loads(edgelist.dumps(g)) == g


def test_round_trip_random_graphs():
    for seed in range(25):
        g = random_graph(seed)
        assert edgelist.loads(edgelist.dumps(g)) == g


def test_comments_and_blank_lines_ignored():
    g = edgelist.loads("# hello\n\np 2 1\ne 0 1\n")
    assert g.n_vertices == 2 and g.edges == ((0, 1),)


@pytest.mark.parametrize("text,fragment", [
    ("e 0 1\n", "before p"),
    ("p 2 1\np 2 1\ne 0 1\n", "duplicate p"),
    ("p 2 2\ne 0 1\n", "declares 2 edges"),
    ("p 2 1\ne 0 1 7\n", "expected 'e <u> <v>'"),
    ("p 2 1\nz 0 1\n", "unknown record"),
    ("", "missing p"),
    ("p 2 q\n", "line 1: non-integer field in 'p' record"),
    ("p 2 1\ne 0 q\n", "line 2: non-integer field in 'e' record"),
    ("p 2 0\n\nl q lab\n", "line 3: non-integer field in 'l' record"),
])
def test_malformed_inputs(text, fragment):
    with pytest.raises(ValueError, match=fragment):
        edgelist.loads(text)


class Built(Exception):
    """Raised by the patched graph builder: loads got past the p line."""


@pytest.fixture
def no_build(monkeypatch):
    """Make edgelist's graph builder raise Built, so a p line the preflight
    misses fails fast instead of allocating its declared vertices."""
    def refuse(*args, **kwargs):
        raise Built(args[0])
    monkeypatch.setattr(edgelist, "build_graph", refuse)


@pytest.mark.parametrize("text", [
    "p 1000001 0\n",
    "p 2 1000001\n",
    "p 1000000000000 1000000000000\ne 0 1\n",
])
def test_p_line_past_the_limit_is_refused(no_build, text):
    with pytest.raises(ValueError, match="line 1: .* MAX_LINE_EDGES"):
        edgelist.loads(text)


def test_largest_allowed_p_line_reaches_the_builder(no_build):
    with pytest.raises(Built):
        edgelist.loads("p 1000000 0\n")


# past-the-limit integers test the preflight; none just under it, where
# loads would allocate a vertex list of the declared size
_TOKENS = st.sampled_from(
    ["p", "e", "l", "#", "0", "1", "2", "3", "5", "-1", "q", "1.5", "lab",
     "1000001", "1000000000000"])


@settings(max_examples=300, deadline=None)
@given(st.lists(st.lists(_TOKENS, max_size=4).map(" ".join), max_size=8)
       .map("\n".join))
def test_token_soup_loads_or_raises_value_error(text):
    try:
        g = edgelist.loads(text)
    except ValueError:
        return
    assert edgelist.loads(edgelist.dumps(g)) == g


def test_file_round_trip(tmp_path):
    g = random_graph(7)
    path = tmp_path / "g.txt"
    path.write_text(edgelist.dumps(g), encoding="utf-8")
    assert edgelist.read_file(path) == g
