"""The eLSM benchmark: one workload, end-to-end or per-layer metrics.

    python3 elsmbench/run.py --workload read-heavy --seed 1 --seconds 10 --trace 0

Run from the root of a checkout.  Prints a human-readable report, then,
as the last line, one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``,
the per-layer metrics of a traced run with ``--trace 1``.  Exits 1 when
any answer disagreed with the reference model (or the trace was not
exact), and 2 when the program under test cannot be found.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def _import_program(root: str) -> None:
    """Make ``repro`` importable from ``<root>/src`` and from nowhere else."""
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        raise SystemExit(_fail(f"no program to measure: {src}/repro is missing"))
    sys.path.insert(0, src)
    import repro

    if not os.path.abspath(repro.__file__).startswith(os.path.abspath(src) + os.sep):
        raise SystemExit(_fail(f"repro was imported from {repro.__file__}, not {src}"))


def _fail(message: str) -> int:
    print(f"elsmbench: {message}", file=sys.stderr)
    return 2


def main(argv: list[str] | None = None) -> int:
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    _import_program(os.getcwd())

    from harness import run

    outcome = run(args.workload, args.seed, args.seconds, bool(args.trace))
    for line in outcome.lines:
        print(line)
    for name, (value, unit) in outcome.metrics.items():
        print(f"  {name:48s} {value:14.6f} {unit}")
    print(
        json.dumps(
            {
                "correct": outcome.correct,
                "attempted": outcome.attempted,
                "failed": outcome.failed,
                "metrics": {
                    name: {"value": value, "unit": unit}
                    for name, (value, unit) in outcome.metrics.items()
                },
            }
        )
    )
    return 0 if outcome.correct else 1


if __name__ == "__main__":
    sys.path.insert(0, HERE)
    sys.exit(main())
