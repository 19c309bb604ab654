"""Message dampening (Section III-C.2).

When messages pass through a node, some are dropped.  The dampening rate
``d_j = f_ij / r_ij`` (fraction *kept*) must increase monotonically with
the node's importance so that answer trees connected through important
free nodes are preferred.

The paper derives, from its in-node message-exchange process, the
logarithmic form of Equation (2):

    d_i = 1 - (1 - alpha) ** (1 + log_g(p_i / p_min))

where ``alpha`` is the per-talk keep probability (the *minimum* dampening
rate, reached at the least important node) and ``g`` the listener group
size.  A straw-man linear form ``d_i ∝ p_i`` is also provided — the paper
rejects it because importance values span orders of magnitude, making the
linear rate range "too large and inflexible"; the ablation bench
``benchmarks/test_ablation_dampening.py`` quantifies that claim.
"""

from __future__ import annotations

import math
from typing import Callable, List, Optional

from ..config import RWMPParams
from ..exceptions import ReproError
from ..importance.pagerank import ImportanceVector

#: Signature of a dampening function: importance ratio ``p_i / p_min`` -> rate.
DampeningFn = Callable[[float], float]


def log_dampening(alpha: float, g: float) -> DampeningFn:
    """Equation (2) as a function of the importance ratio ``p / p_min``.

    Returns a function mapping ``ratio >= 1`` to a rate in ``[alpha, 1)``.
    """
    if not 0.0 < alpha < 1.0:
        raise ReproError(f"alpha must be in (0, 1), got {alpha}")
    if g <= 1.0:
        raise ReproError(f"g must be > 1, got {g}")
    log_g = math.log(g)
    keep = 1.0 - alpha

    def rate(ratio: float) -> float:
        if ratio < 1.0:
            ratio = 1.0  # numerical guard: p_i >= p_min by construction
        exponent = 1.0 + math.log(ratio) / log_g
        return 1.0 - keep ** exponent

    return rate


def linear_dampening(p_max_ratio: float) -> DampeningFn:
    """The straw-man ``d ∝ p`` rate, normalized by the largest ratio.

    ``d_i = ratio_i / p_max_ratio`` clipped to (0, 1]; with importance
    spreads of 1e3-1e6 this crushes unimportant nodes to near-zero rates,
    which is exactly the inflexibility the paper describes.
    """
    if p_max_ratio < 1.0:
        raise ReproError("p_max_ratio must be >= 1")

    def rate(ratio: float) -> float:
        return max(min(ratio / p_max_ratio, 1.0), 1e-12)

    return rate


class DampeningModel:
    """Per-node dampening rates for a graph's importance vector.

    The model also owns the paper's surfer-count convention: the least
    important node hosts exactly one surfer, hence ``t = 1 / p_min``.

    Args:
        importance: the graph's importance vector.
        params: RWMP parameters (alpha, g).
        fn: optional custom dampening function of the importance ratio;
            defaults to Equation (2).
    """

    def __init__(
        self,
        importance: ImportanceVector,
        params: Optional[RWMPParams] = None,
        fn: Optional[DampeningFn] = None,
    ) -> None:
        self.importance = importance
        self.params = params or RWMPParams()
        self.p_min = importance.p_min
        self.t = 1.0 / self.p_min
        self._fn = fn or log_dampening(self.params.alpha, self.params.g)
        self._rates: Optional[List[float]] = None

    @property
    def rates(self) -> List[float]:
        """The rate table: ``rates[node]`` is ``d_node``, for every node.

        Built on first use by applying the dampening function to each
        node's importance ratio, so an out-of-range custom function
        raises :class:`ReproError` at the first lookup rather than at
        construction.  The search hot loops index this list directly;
        treat it as read-only.
        """
        table = self._rates
        if table is None:
            fn = self._fn
            p_min = self.p_min
            table = []
            for node, importance in enumerate(self.importance.values.tolist()):
                value = fn(importance / p_min)
                if not 0.0 < value <= 1.0:
                    raise ReproError(
                        f"dampening function returned {value} for node {node}"
                    )
                table.append(value)
            self._rates = table
        return table

    def rate(self, node: int) -> float:
        """Dampening rate ``d_node`` (fraction of messages kept)."""
        return self.rates[node]

    def max_rate(self) -> float:
        """Dampening rate of the most important node (global upper bound)."""
        best = max(float(self.importance.values.max()), self.p_min)
        return self._fn(best / self.p_min)

    def surfers(self, node: int) -> float:
        """Number of surfers resident at ``node`` (``t * p_node``)."""
        return self.t * self.importance[node]
