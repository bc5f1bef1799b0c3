"""Min-sum ordering toolkit.

Builds greedy density chains over set families with exact rational
arithmetic, instantiates the machinery for set covering, OR-precedence
scheduling, expanding search and read-once formula evaluation, and
certifies the advertised approximation factors against exhaustive oracles
at desk scale.
"""

from .core import (
    Chain,
    DensityResult,
    INF,
    MsopInstance,
    chain_cost,
    chain_to_permutation,
    greedy_chain,
    spot_check_hypotheses,
)
from .dual import backward_greedy_chain, dual_chain, dualize
from .exact import (
    HistogramReport,
    exact_density_solver,
    exact_max_density,
    exact_opt_chain,
    exact_opt_permutation,
    histogram_containment_check,
)
from .errors import MsopError

__all__ = [
    "Chain",
    "DensityResult",
    "HistogramReport",
    "INF",
    "MsopError",
    "MsopInstance",
    "backward_greedy_chain",
    "chain_cost",
    "chain_to_permutation",
    "dual_chain",
    "dualize",
    "exact_density_solver",
    "exact_max_density",
    "exact_opt_chain",
    "exact_opt_permutation",
    "greedy_chain",
    "histogram_containment_check",
    "spot_check_hypotheses",
]
