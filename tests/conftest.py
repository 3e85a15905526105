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


# object keys the readers look up, so drawn values often reach the checks
# behind the top-level shape test
_JSON_KEYS = ["n", "arcs", "edges", "parts", "mode", "p", "sets", "name",
              "generator", "kind", "strategy", "oracle"]


def json_values():
    """Arbitrary JSON values with small integers (and a few past every cap),
    so an accepted value stays cheap to run."""
    leaves = (
        st.none()
        | st.booleans()
        | st.integers(min_value=-2, max_value=8)
        | st.sampled_from([10**6, 2**64])
        | st.floats(allow_nan=False, allow_infinity=False)
        | st.text(max_size=4)
    )
    return st.recursive(
        leaves,
        lambda inner: st.lists(inner, max_size=4)
        | st.dictionaries(st.sampled_from(_JSON_KEYS) | st.text(max_size=3), inner,
                          max_size=4),
        max_leaves=16,
    )
