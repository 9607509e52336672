"""Every invariant and class flag is a property of the unlabeled graph."""

from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import graphs
from squarestable.graphs import Graph, girth
from squarestable.invariants import (alpha, core_set, gamma, ind_dom, mu,
                                     omega_family, theta)
from squarestable.recognizers import recognize


@st.composite
def relabeled_pairs(draw, max_n: int = 9) -> tuple[Graph, Graph]:
    """A graph and its image under a random permutation of the vertex ids."""
    g = draw(graphs(min_n=1, max_n=max_n))
    perm = draw(st.permutations(range(g.n)))
    return g, Graph(g.n, [(perm[u], perm[v]) for u, v in g.edges])


def _profile(g: Graph) -> dict:
    return {k: v for k, v in recognize(g).items() if k != "certificates"}


def _summary(g: Graph) -> dict:
    return {
        "alpha": alpha(g)[0], "mu": mu(g)[0], "theta": theta(g)[0],
        "gamma": gamma(g)[0], "ind_dom": ind_dom(g)[0], "girth": girth(g),
        "omega_size": len(omega_family(g)), "core_size": len(core_set(g)),
        "flags": _profile(g),
    }


@settings(max_examples=120, deadline=None)
@given(relabeled_pairs())
def test_invariants_and_flags_survive_relabeling(pair):
    g, h = pair
    assert _summary(g) == _summary(h)
