"""``python -m repro trace``: record spans, attribute latency, export.

Runs one golden scenario with span tracing enabled, verifies the exact
attribution invariant (critical-path edge durations sum to the recorded
end-to-end latency on every completed chain instance), prints per-chain
attribution reports and optionally exports the span set as a Chrome
``trace_event`` JSON (loadable in ``about:tracing`` / Perfetto) and/or
compact JSONL.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.experiments.common import GOLDEN_SCENARIOS, golden_config
from repro.perception.stack import PerceptionStack
from repro.tracing.critical_path import (
    CriticalPathAnalyzer,
    attribute_chain,
    render_attribution,
    validate_spans,
)
from repro.tracing.export import write_chrome_trace, write_jsonl


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro trace",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument(
        "--scenario",
        choices=sorted(GOLDEN_SCENARIOS),
        default="benign",
        help="which golden scenario configuration to run (default: benign)",
    )
    parser.add_argument(
        "--frames", type=int, default=24,
        help="chain activations to simulate (default: 24)",
    )
    parser.add_argument(
        "--seed", type=int, default=None,
        help="override the scenario's seed",
    )
    parser.add_argument(
        "--chain", default=None,
        help="report only this chain (default: all four)",
    )
    parser.add_argument(
        "--chrome", metavar="PATH", default=None,
        help="write a Chrome trace_event JSON to PATH",
    )
    parser.add_argument(
        "--jsonl", metavar="PATH", default=None,
        help="write one span per line (lossless) to PATH",
    )
    parser.add_argument(
        "--no-report", action="store_true",
        help="skip the per-chain attribution report",
    )
    args = parser.parse_args(argv)
    if args.frames < 1:
        parser.error(f"--frames must be >= 1, got {args.frames}")

    overrides = {"spans": True}
    if args.seed is not None:
        overrides["seed"] = args.seed
    config = golden_config(args.scenario, **overrides)

    stack = PerceptionStack(config)
    stack.run(n_frames=args.frames)
    recorder = stack.spans
    print(
        f"scenario {args.scenario}: {args.frames} frames, "
        f"{len(recorder)} spans recorded ({recorder.open_spans} open)"
    )

    problems = validate_spans(recorder)
    if problems:
        print(f"span validation FAILED ({len(problems)} problems):")
        for problem in problems[:10]:
            print(f"  {problem}")
        return 1

    analyzer = CriticalPathAnalyzer(recorder)
    chains = stack.chains
    if args.chain is not None:
        if args.chain not in chains:
            parser.error(
                f"unknown chain {args.chain!r} (have {sorted(chains)})"
            )
        chains = {args.chain: chains[args.chain]}

    verified = 0
    for chain in chains.values():
        # instance_path() verifies the exact-sum invariant per instance
        # and raises on any mismatch.
        verified += len(analyzer.analyze(chain, range(args.frames)))
    print(
        f"attribution exact on {verified} chain instances "
        "(edge durations sum to recorded e2e)"
    )

    if not args.no_report:
        for name in sorted(chains):
            attribution = attribute_chain(
                analyzer, chains[name], range(args.frames)
            )
            print()
            print(render_attribution(attribution))

    if args.chrome is not None:
        count = write_chrome_trace(recorder, args.chrome)
        print(f"\nwrote {count} trace events to {args.chrome}")
    if args.jsonl is not None:
        count = write_jsonl(recorder, args.jsonl)
        print(f"wrote {count} spans to {args.jsonl}")
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
