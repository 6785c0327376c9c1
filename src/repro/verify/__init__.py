"""repro.verify — the cross-model verification subsystem.

The paper's headline claims are *orderings* — NFT 2 beats NFT 1 by
orders of magnitude, RAID 6 dominates RAID 5 dominates no-RAID, the
critical-set fractions nest — and this package turns them into enforced,
machine-checkable invariants:

* :mod:`~repro.verify.registry` — the invariant registry and the
  :class:`VerifyContext` every check runs against;
* :mod:`~repro.verify.invariants` — the paper-derived properties
  (monotonicity, dominance, ``k3 <= k2 <= 1``, generator conservation,
  closed-form error envelopes);
* :mod:`~repro.verify.oracles` — metamorphic and cross-method oracles
  triangulating analytic, closed-form and seeded Monte-Carlo estimates;
* :mod:`~repro.verify.faults` — fault injection (corrupt cache
  entries, poisoned compiled-spec caches, killed Monte-Carlo pool
  workers) proving failures degrade to recomputation, never to wrong
  numbers;
* :mod:`~repro.verify.fleet` — collapse, metamorphic and dominance laws
  for heterogeneous fleets (the ``fleet-*`` invariants), audited on a
  fixed-seed slice of the ``repro-scenarios`` corpus;
* :mod:`~repro.verify.lattice` — the 27-point parameter lattice the
  battery sweeps;
* :mod:`~repro.verify.report` / :mod:`~repro.verify.cli` — the
  machine-readable violations report and the ``repro-verify`` command.

Quickstart::

    from repro.verify import REGISTRY, make_context

    report = REGISTRY.run(make_context())
    assert report.ok, report.format_text()

Importing this package registers every built-in invariant.
"""

from .registry import (
    Invariant,
    InvariantCheck,
    InvariantRegistry,
    REGISTRY,
    VerifyContext,
    Violation,
    invariant,
)
from .lattice import DEFAULT_AXES, build_lattice, default_lattice, make_context
from .report import VerificationReport

# Importing these modules registers the built-in invariants.
from . import invariants as _invariants  # noqa: F401
from . import oracles as _oracles  # noqa: F401
from . import faults as _faults  # noqa: F401
from . import fleet as _fleet  # noqa: F401

from .invariants import CLOSED_FORM_REL_ERROR_BOUNDS, closed_form_bound
from .oracles import (
    CrossMethodReport,
    cross_method_check,
    mc_reference_mttdl,
    rescaled_parameters,
)
from .faults import (
    corrupt_cache_dir,
    fault_drill,
    kill_worker_action,
    poison_spec_cache,
)

__all__ = [
    "CLOSED_FORM_REL_ERROR_BOUNDS",
    "CrossMethodReport",
    "DEFAULT_AXES",
    "Invariant",
    "InvariantCheck",
    "InvariantRegistry",
    "REGISTRY",
    "VerificationReport",
    "VerifyContext",
    "Violation",
    "build_lattice",
    "closed_form_bound",
    "corrupt_cache_dir",
    "cross_method_check",
    "default_lattice",
    "fault_drill",
    "invariant",
    "kill_worker_action",
    "make_context",
    "mc_reference_mttdl",
    "poison_spec_cache",
    "rescaled_parameters",
]
