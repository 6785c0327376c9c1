"""Node-level Markov models for nodes *with* internal RAID (Figures 5-7).

This is the upper half of the paper's hierarchical modeling: the drive-
level chains of :mod:`repro.models.raid` are summarized into an array
failure rate ``lambda_D`` and a re-stripe sector-loss rate ``lambda_S``,
and the node-level chain then tracks how many nodes' worth of data are
simultaneously unavailable.

A node becomes unavailable at rate ``lambda_N + lambda_D`` (the whole node
dies, or its internal array does — either way the node's data must be
rebuilt from the other nodes).  Hard errors during internal re-stripes
(``lambda_S``) only matter when a redundancy set is critical, so the
``lambda_S`` contribution on the final transition is scaled by the
critical-set fraction ``k_t`` of Section 5.2.1 (``k_1 = 1`` for fault
tolerance 1, matching the paper's NFT-1 formula).

The chain shape is declared in :func:`repro.models.specs.internal_raid_spec`
and bound per operating point.
"""

from __future__ import annotations

from typing import Dict, Optional, Union

from ..core import CTMC
from ..core.spec import ModelSpec
from .critical_sets import critical_fraction
from .parameters import Parameters
from .raid import ArrayRates, InternalRaid, Raid5Model, Raid6Model
from .rebuild import RebuildModel
from .specs import compiled, internal_raid_env, internal_raid_spec

__all__ = [
    "build_internal_raid_chain",
    "InternalRaidNodeModel",
]


def build_internal_raid_chain(
    fault_tolerance: int,
    n: int,
    node_failure_rate: float,
    array_failure_rate: float,
    restripe_sector_loss_rate: float,
    node_rebuild_rate: float,
    critical_sector_fraction: float,
    parallel_repair: bool = False,
) -> CTMC:
    """Build the Figure 5/6/7 chain for node fault tolerance ``t``.

    States ``0 .. t`` count unavailable nodes; ``loss`` is absorbing.
    Transitions:

    * ``j -> j+1`` at ``(N - j)(lambda_N + lambda_D)`` for ``j < t``,
    * ``t -> loss`` at ``(N - t)(lambda_N + lambda_D + k_t lambda_S)``,
    * ``j -> j-1`` at ``mu_N`` (the most recent failed node's data is
      reconstructed onto the survivors' spare space).

    Args:
        fault_tolerance: t, node failures tolerated by the erasure code.
        n: node set size N.
        node_failure_rate: lambda_N.
        array_failure_rate: lambda_D of the internal array.
        restripe_sector_loss_rate: lambda_S of the internal array.
        node_rebuild_rate: mu_N.
        critical_sector_fraction: ``k_t`` (1 for t=1, (R-1)/(N-1) for t=2,
            ...), the fraction of re-striping data that belongs to critical
            redundancy sets.
        parallel_repair: the paper's model (False) repairs one node at a
            time (repair rate ``mu_N`` in every degraded state).  With
            True, all ``j`` outstanding rebuilds proceed concurrently on
            disjoint survivors (rate ``j * mu_N``) — an ablation for the
            distributed-rebuild scheduling choice, not from the paper.
    """
    env = internal_raid_env(
        fault_tolerance,
        n,
        node_failure_rate,
        array_failure_rate,
        restripe_sector_loss_rate,
        node_rebuild_rate,
        critical_sector_fraction,
    )
    return compiled(internal_raid_spec(fault_tolerance, parallel_repair)).bind(env)


class InternalRaidNodeModel:
    """MTTDL model for [internal RAID x node fault tolerance t].

    Args:
        params: system parameters, or a
            :class:`~repro.models.parameters.ParameterColumns` (with an
            ``array_rates`` override of matching columns), for which
            :meth:`chain_env` returns every member's environment as
            columns.
        raid_level: :attr:`InternalRaid.RAID5` or :attr:`InternalRaid.RAID6`.
        fault_tolerance: cross-node erasure-code tolerance t >= 1.

    Example:
        >>> from repro.models import Parameters
        >>> model = InternalRaidNodeModel(Parameters.baseline(),
        ...                               InternalRaid.RAID5, fault_tolerance=2)
        >>> mttdl = model.mttdl_exact()
        >>> approx = model.mttdl_approx()
        >>> abs(mttdl - approx) / mttdl < 0.05
        True
    """

    def __init__(
        self,
        params: Parameters,
        raid_level: InternalRaid,
        fault_tolerance: int,
        rebuild: Optional[RebuildModel] = None,
        rates_method: str = "approx",
        array_rates: Optional[ArrayRates] = None,
    ) -> None:
        if fault_tolerance < 1:
            raise ValueError("fault_tolerance must be >= 1")
        if raid_level is InternalRaid.NONE:
            raise ValueError(
                "use repro.models.no_raid for nodes without internal RAID"
            )
        if rates_method not in ("approx", "exact"):
            raise ValueError("rates_method must be 'approx' or 'exact'")
        self._params = params
        self._level = raid_level
        self._t = fault_tolerance
        self._rates_method = rates_method
        self._rebuild = rebuild if rebuild is not None else RebuildModel(params)
        self._array_rates_override = array_rates
        if raid_level is InternalRaid.RAID5:
            self._array = Raid5Model(params, self._rebuild)
        else:
            self._array = Raid6Model(params, self._rebuild)

    # ------------------------------------------------------------------ #

    @property
    def params(self) -> Parameters:
        return self._params

    @property
    def raid_level(self) -> InternalRaid:
        return self._level

    @property
    def fault_tolerance(self) -> int:
        return self._t

    @property
    def array_rates(self) -> ArrayRates:
        """lambda_D / lambda_S exported by the internal array model (using
        the ``rates_method`` chosen at construction), or the precomputed
        ``array_rates`` override passed to the constructor — the sweep
        engine computes them once per distinct array operating point and
        shares them across sweep points."""
        if self._array_rates_override is not None:
            return self._array_rates_override
        return self._array.rates(self._rates_method)

    @property
    def node_rebuild_rate(self) -> float:
        """mu_N from the Section 5.1 transfer model."""
        return self._rebuild.node_rebuild_rate(self._t)

    @property
    def critical_sector_fraction(self) -> float:
        """``k_t``: 1 for t = 1 (the paper's bare lambda_S), else the
        Section 5.2.1 combinatorial fraction."""
        if self._t == 1:
            return 1.0
        return critical_fraction(
            self._params.node_set_size, self._params.redundancy_set_size, self._t
        )

    def spec(self) -> ModelSpec:
        """The declarative form of the Figure 5/6/7 chain."""
        return internal_raid_spec(self._t)

    def chain_env(self) -> Dict[str, Union[int, float]]:
        """The binding environment for :meth:`spec` at this operating point."""
        rates = self.array_rates
        return internal_raid_env(
            self._t,
            self._params.node_set_size,
            self._params.node_failure_rate,
            rates.array_failure_rate,
            rates.restripe_sector_loss_rate,
            self.node_rebuild_rate,
            self.critical_sector_fraction,
        )

    def chain(self) -> CTMC:
        """The node-level CTMC (Figure 5, 6 or 7), bound through the
        compiled spec."""
        return compiled(self.spec()).bind(self.chain_env())

    def mttdl_exact(self) -> float:
        """MTTDL in hours from the numeric CTMC solve."""
        return self.chain().mean_time_to_absorption()

    def mttdl_approx(self) -> float:
        """The paper's approximation for this configuration:

        ``mu_N^t / (N (N-1) ... (N-t) (lambda_N + lambda_D)^t
        (lambda_N + lambda_D + k_t lambda_S))``.
        """
        rates = self.array_rates
        n = self._params.node_set_size
        lam = self._params.node_failure_rate + rates.array_failure_rate
        mu = self.node_rebuild_rate
        k_t = self.critical_sector_fraction
        falling = 1.0
        for j in range(self._t + 1):
            falling *= n - j
        return mu**self._t / (
            falling * lam**self._t * (lam + k_t * rates.restripe_sector_loss_rate)
        )
