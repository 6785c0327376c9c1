"""Markov models for nodes *without* internal RAID (Figures 8-10 and
the appendix).

Without internal RAID, individual drives participate directly in the
cross-node erasure code (at most one drive of a node per redundancy set),
so a drive failure and a node failure are *distinct* degraded states with
different repair rates (``mu_d`` vs ``mu_N``).  The state space therefore
doubles with each additional tolerated failure: the appendix builds the
fault-tolerance-``k`` chain from two copies of the ``k - 1`` chain under
a new root, ``2^(k+1) - 1`` non-absorbing states, and Figures 8, 9 and 10
are its ``k = 1, 2, 3`` cases.

One family serves every ``k``: the chain is declared once in
:func:`repro.models.specs.no_raid_spec` (states plus symbolic rates over
the paper's parameters) and bound here per operating point.  The chains
of the hand-transcribed figure builders and of the appendix-literal
recursion it replaced are frozen in ``tests/data/oracle_chains.json``,
and the test suite checks the family against them.

State labels are failure words: ``"0"*k`` is fully operational; a word
like ``"Nd0"`` means a node failure followed by a drive failure, one more
failure tolerated.  Hard-error splits ride the transitions into the
*innermost* (critical) states, weighted by the ``h_alpha`` probabilities
of Section 5.2.2.
"""

from __future__ import annotations

from typing import Dict, Mapping, Optional, Tuple

from ..core import CTMC
from ..core.spec import ModelSpec
from .critical_sets import h_parameters
from .parameters import Parameters
from .rebuild import RebuildModel
from .recursive import mttdl_general_approx
from .specs import check_node_count, compiled, no_raid_env, no_raid_spec

__all__ = [
    "build_no_raid_chain",
    "NoRaidNodeModel",
]


def build_no_raid_chain(
    fault_tolerance: int,
    n: int,
    d: int,
    node_failure_rate: float,
    drive_failure_rate: float,
    node_rebuild_rate: float,
    drive_rebuild_rate: float,
    h: Mapping[str, float],
) -> CTMC:
    """The no-internal-RAID chain for fault tolerance ``k``.

    Args:
        fault_tolerance: k >= 1 (Figure 8, 9, 10 for k = 1, 2, 3).
        n: node set size (must exceed k).
        d: drives per node.
        node_failure_rate: lambda_N.
        drive_failure_rate: lambda_d.
        node_rebuild_rate: mu_N.
        drive_rebuild_rate: mu_d.
        h: every failure word of length k mapped to the probability of a
            hard error during the rebuild it forces (Section 5.2.2; see
            :func:`repro.models.critical_sets.h_parameters`).  For k = 1
            the words are ``"N"`` (``d (R-1) C HER``) and ``"d"``
            (``(R-1) C HER``).
    """
    env = no_raid_env(
        fault_tolerance,
        n,
        d,
        node_failure_rate,
        drive_failure_rate,
        node_rebuild_rate,
        drive_rebuild_rate,
        h,
    )
    return compiled(no_raid_spec(fault_tolerance)).bind(env)


class NoRaidNodeModel:
    """MTTDL model for [no internal RAID x node fault tolerance k], k >= 1.

    Exact (numeric solve of the chain) and approximate (Figure A1).
    ``params`` may be a :class:`~repro.models.parameters.ParameterColumns`,
    for which :meth:`chain_env` returns every member's environment as
    columns.  The chain has ``2^(k+1) - 1`` states, so stay modest;
    k = 10 is about 2000 states and solves in milliseconds.
    """

    def __init__(
        self,
        params: Parameters,
        fault_tolerance: int,
        rebuild: Optional[RebuildModel] = None,
    ) -> None:
        if fault_tolerance < 1:
            raise ValueError("fault_tolerance must be >= 1")
        check_node_count(params.node_set_size, fault_tolerance)
        self._params = params
        self._t = fault_tolerance
        self._rebuild = rebuild if rebuild is not None else RebuildModel(params)

    @property
    def params(self) -> Parameters:
        return self._params

    @property
    def fault_tolerance(self) -> int:
        return self._t

    @property
    def node_rebuild_rate(self) -> float:
        return self._rebuild.node_rebuild_rate(self._t)

    @property
    def drive_rebuild_rate(self) -> float:
        return self._rebuild.drive_rebuild_rate(self._t)

    def hard_error_parameters(self) -> Dict[str, float]:
        """All ``2^k`` h-parameters (Section 5.2.2 generalized)."""
        return h_parameters(self._params, self._t)

    def _args(self) -> Tuple[float, ...]:
        """``n, d, lambda_N, lambda_d, mu_N, mu_d``: the builders' leading
        arguments at this operating point."""
        p = self._params
        return (
            p.node_set_size,
            p.drives_per_node,
            p.node_failure_rate,
            p.drive_failure_rate,
            self.node_rebuild_rate,
            self.drive_rebuild_rate,
        )

    def spec(self) -> ModelSpec:
        """The declarative form of the chain."""
        return no_raid_spec(self._t)

    def chain_env(self) -> Dict[str, float]:
        """The binding environment for :meth:`spec` at this operating point."""
        return no_raid_env(self._t, *self._args(), self.hard_error_parameters())

    def chain(self) -> CTMC:
        """The chain, bound through the compiled spec."""
        return compiled(self.spec()).bind(self.chain_env())

    def mttdl_exact(self) -> float:
        """MTTDL in hours from the numeric CTMC solve."""
        return self.chain().mean_time_to_absorption()

    def mttdl_approx(self) -> float:
        """Figure A1's closed-form approximation."""
        return mttdl_general_approx(
            self._t, *self._args(), self.hard_error_parameters()
        )

