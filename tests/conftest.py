"""Shared hypothesis strategies for small graph instances."""

import hypothesis.strategies as st
from hypothesis import settings

from invlab.graphs import OrientedGraph

# CI runs the suite with --hypothesis-profile=ci: reproducible examples, more
# of them for tests that leave max_examples to the profile, and no deadline
# on shared runners
settings.register_profile("ci", derandomize=True, deadline=None, max_examples=500)


@st.composite
def oriented_graphs(draw, min_n=0, max_n=7):
    n = draw(st.integers(min_value=min_n, max_value=max_n))
    arcs = []
    for u in range(n):
        for v in range(u + 1, n):
            kind = draw(st.integers(min_value=0, max_value=2))
            if kind == 1:
                arcs.append((u, v))
            elif kind == 2:
                arcs.append((v, u))
    return OrientedGraph.from_arcs(n, arcs)


@st.composite
def tournaments(draw, min_n=1, max_n=7):
    n = draw(st.integers(min_value=min_n, max_value=max_n))
    arcs = []
    for u in range(n):
        for v in range(u + 1, n):
            arcs.append((u, v) if draw(st.booleans()) else (v, u))
    return OrientedGraph.from_arcs(n, arcs)


@st.composite
def vertex_subsets(draw, n):
    return frozenset(v for v in range(n) if draw(st.booleans()))
