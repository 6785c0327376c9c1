"""Incremental construction of CTMCs.

The Markov chains in the paper are described state-by-state (Figures 1
through 10); :class:`ChainBuilder` mirrors that style: add states, add
rates, build.  Production chains are bound from declarative specs
(:mod:`repro.core.spec`); the builder backs the ``legacy_build_*``
equivalence oracles and ad-hoc chains.
"""

from __future__ import annotations

from typing import Dict, Hashable, List, Optional, Tuple

from .ctmc import CTMC, CTMCError, Transition

__all__ = ["ChainBuilder"]

State = Hashable


class ChainBuilder:
    """Mutable builder for :class:`~repro.core.ctmc.CTMC` instances.

    States are registered in insertion order, which becomes the matrix
    order of the built chain.  Rates added between the same pair of states
    accumulate.

    Example:
        >>> b = ChainBuilder()
        >>> b.add_state("ok").add_state("degraded").add_state("lost")
        ChainBuilder(states=3, transitions=0)
        >>> _ = b.add_rate("ok", "degraded", 2.0)
        >>> _ = b.add_rate("degraded", "ok", 100.0)
        >>> _ = b.add_rate("degraded", "lost", 1.0)
        >>> chain = b.build(initial_state="ok")
        >>> chain.absorbing_states()
        ('lost',)
    """

    def __init__(self) -> None:
        self._states: List[State] = []
        self._seen: set = set()
        self._rates: Dict[Tuple[State, State], float] = {}

    # ------------------------------------------------------------------ #

    def add_state(self, state: State) -> "ChainBuilder":
        """Register ``state``; idempotent."""
        if state not in self._seen:
            self._seen.add(state)
            self._states.append(state)
        return self

    def add_states(self, *states: State) -> "ChainBuilder":
        """Register several states in order."""
        for s in states:
            self.add_state(s)
        return self

    def add_rate(self, source: State, target: State, rate: float) -> "ChainBuilder":
        """Add ``rate`` from ``source`` to ``target``, registering both states.

        Zero rates are accepted and dropped (convenient when a formula term
        vanishes, e.g. ``h = 0``); negative rates raise.
        """
        if rate < 0:
            raise CTMCError(f"negative rate {rate} on {source!r} -> {target!r}")
        if source == target:
            raise CTMCError(f"self-loop on {source!r}")
        self.add_state(source)
        self.add_state(target)
        if rate > 0:
            key = (source, target)
            self._rates[key] = self._rates.get(key, 0.0) + rate
        return self

    @property
    def states(self) -> Tuple[State, ...]:
        """States registered so far, in insertion order."""
        return tuple(self._states)

    # ------------------------------------------------------------------ #

    def build(self, initial_state: Optional[State] = None) -> CTMC:
        """Construct the immutable :class:`CTMC`.

        Args:
            initial_state: start state (defaults to the first registered).
        """
        transitions = [
            Transition(src, dst, r) for (src, dst), r in self._rates.items()
        ]
        return CTMC(self._states, transitions, initial_state=initial_state)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ChainBuilder(states={len(self._states)}, "
            f"transitions={len(self._rates)})"
        )
