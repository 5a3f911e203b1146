"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload mcck-fig10 --seed 42 --seconds 30 --trace 0

Run from the repository root. ``--trace 0`` prints the end-to-end
metrics; ``--trace 1`` runs the traced pass and prints the per-layer
metrics and the tracing overhead. Progress goes to standard error and a
readable table to standard output; the last line of standard output is
one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``. The program is imported from ``src/`` next to this
directory; without it the benchmark exits with status 2.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _import_program() -> None:
    """Put the checkout's ``src/`` first on the path and import ``repro``
    from it, refusing any other copy."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        _fail(f"no program sources at {src / 'repro'}")
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(ROOT))
    import repro

    if Path(repro.__file__).resolve().parent != (src / "repro").resolve():
        _fail(f"imported repro from {repro.__file__}, not from {src}")


def _fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def main(argv=None) -> int:
    _import_program()
    from perfbench import suite

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(suite.WORKLOADS))
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    workload = suite.WORKLOADS[args.workload]

    def log(message: str) -> None:
        print(f"[{workload.name}] {message}", file=sys.stderr, flush=True)

    if args.trace:
        report, table = suite.trace_layers(workload, args.seed, log)
        out = ROOT / "perfbench" / "out"
        out.mkdir(exist_ok=True)
        path = out / f"{workload.name}-seed{args.seed}-spans.json"
        path.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
        log(f"span table written to {path.relative_to(ROOT)}")
    else:
        report = suite.measure(workload, args.seed, args.seconds, log)

    units = suite.PER_LAYER if args.trace else suite.END_TO_END
    print(f"{workload.name} seed={args.seed} trace={args.trace}")
    for name, (unit, _better) in units.items():
        print(f"  {name:<30} {report.metrics[name]:>16.6g} {unit}")
    print(f"  failed runs: {report.failed}/{report.attempted}")
    print(json.dumps({
        "correct": report.correct,
        "attempted": report.attempted,
        "failed": report.failed,
        "metrics": {
            name: {"value": report.metrics[name], "unit": unit}
            for name, (unit, _better) in units.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
