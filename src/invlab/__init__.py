"""invlab: deciders, constructive decycling, exact oracles, generators and a
kernelizer for inversions of prescribed or bounded size in oriented graphs."""

from .errors import CapacityError, InputError, ModeError, UnsupportedRangeError
from .graphs import (
    AT_MOST,
    EXACT,
    FasResult,
    InversionFamily,
    OrientedGraph,
    UndirectedGraph,
    apply_family,
    fas_exact,
    fas_heuristic,
    feedback_arc_set,
    invert,
    is_acyclic,
    is_tournament,
    out_even_count,
    push,
)
from .pairspace import (
    ParitySignature,
    encode_set,
    encode_tournament,
    minimize_family,
    parity_signature,
    signatures_equal,
    span_member,
    span_witness_bruteforce,
)
from .decide import (
    extend_to_invertible_tournament,
    oriented_graph_invertible,
    pushable_bruteforce,
    tournament_invertible,
    tournaments_equivalent,
)
from .decycle import (
    decycle_dense,
    decycle_opt_dense,
    decycle_via_fas,
    greedy_reduce,
    reverse_arc_set,
    verify_family,
)
from .oracle import exact_inv, orbit_census, reachable, single_inversion_decycles
from .kernel import KernelConfig, kernelize

__version__ = "0.1.0"
