"""``repro-scenarios`` — generate, solve and audit fleet corpora.

Examples::

    # 1000 deterministic scenarios, solved through both backends, with
    # the differential oracles enforced (non-zero exit on violation):
    repro-scenarios --count 1000 --seed 0 --out corpus.jsonl

    # generate only (no solves), e.g. to diff two generator versions:
    repro-scenarios --count 200 --no-solve --out corpus.jsonl

    # the CI smoke job: a reduced corpus with a validated trace artifact
    repro-scenarios --count 50 --out corpus.jsonl --trace trace.jsonl
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys
from typing import List, Optional

from ..cli_common import (
    add_observability_arguments,
    apply_param_overrides,
    observed_session,
)
from ..models.parameters import Parameters
from .scenarios import (
    FAMILIES,
    CorpusHeader,
    ScenarioGenerator,
    run_corpus,
    write_corpus,
)

__all__ = ["main"]


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-scenarios",
        description=(
            "Generate seeded heterogeneous-fleet scenarios, pump them "
            "through the sweep engine and both solver backends, and hold "
            "every one to the differential oracles."
        ),
    )
    parser.add_argument(
        "--count", type=int, default=100, help="scenarios to generate"
    )
    parser.add_argument(
        "--seed", type=int, default=0, help="master generator seed"
    )
    parser.add_argument(
        "--families",
        default=",".join(FAMILIES),
        help=f"comma-separated families (default: all of {','.join(FAMILIES)})",
    )
    parser.add_argument(
        "--out",
        metavar="PATH",
        default=None,
        help="write the JSONL corpus here ('-' or omitted: stdout)",
    )
    parser.add_argument(
        "--no-solve",
        action="store_true",
        help="emit scenarios only; skip solves and oracles",
    )
    parser.add_argument(
        "--dense-limit",
        type=int,
        default=2048,
        help="max states for the dense cross-check solve",
    )
    parser.add_argument(
        "--set",
        action="append",
        default=[],
        metavar="FIELD=VALUE",
        help="override a base parameter (repeatable)",
    )
    parser.add_argument(
        "--summary",
        action="store_true",
        help="print a one-line human summary to stderr",
    )
    parser.add_argument(
        "--quiet", action="store_true", help="suppress the summary line"
    )
    add_observability_arguments(parser)
    args = parser.parse_args(argv)

    if args.count < 1:
        parser.error("--count must be >= 1")
    families = tuple(f.strip() for f in args.families.split(",") if f.strip())
    base = apply_param_overrides(Parameters.baseline(), args.set, parser.error)

    session = observed_session(args, root="repro-scenarios")
    with session if session is not None else contextlib.nullcontext():
        generator = ScenarioGenerator(
            base=base, seed=args.seed, families=families
        )
        scenarios = list(generator.generate(args.count))
        if args.no_solve:
            header = CorpusHeader(
                seed=args.seed,
                count=len(scenarios),
                families=tuple(sorted({s.family for s in scenarios})),
                base_params_key=base.cache_key(),
                solved=False,
            )
            results = None
            violations = ()
        else:
            from ..engine import SweepEngine

            engine = SweepEngine(base)
            run = run_corpus(
                scenarios,
                engine=engine,
                dense_check_limit=args.dense_limit,
            )
            header, results, violations = run.header, run.results, run.violations

        if args.out in (None, "-"):
            write_corpus(sys.stdout, header, scenarios, results)
        else:
            with open(args.out, "w", encoding="utf-8") as fh:
                write_corpus(fh, header, scenarios, results)

        if not args.quiet:
            solved = 0 if results is None else len(results)
            dense_checked = (
                0
                if results is None
                else sum(1 for r in results if r.dense_mttdl_hours is not None)
            )
            print(
                f"repro-scenarios: {len(scenarios)} scenarios "
                f"({', '.join(sorted({s.family for s in scenarios}))}); "
                f"{solved} solved, {dense_checked} dense-cross-checked, "
                f"{len(violations)} oracle violations",
                file=sys.stderr,
            )
        for violation in violations:
            print(
                "VIOLATION "
                + json.dumps(violation, sort_keys=True),
                file=sys.stderr,
            )
    return 1 if violations else 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
