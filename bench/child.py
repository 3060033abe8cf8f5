"""One benchmark pass in a fresh interpreter.

Usage (spawned by run.py, one child at a time):

    python3 -I bench/child.py ROOT WORKLOAD SEED TRACE

ROOT is the checkout whose ``src/qspt`` is measured and TRACE is 0 or 1; the
file cache directory comes from ``$QSPT_CACHE`` exactly as for the CLI.  The
child prints one JSON object on stdout.

Every ``qspt`` invocation is a fresh process, and ``cli._tables_cache``,
``cli._registry`` and the file cache are process- or directory-level state,
so each pass runs in its own interpreter against an empty cache directory.
"""

# Set-up is timed from this script's first statement, so it excludes the
# interpreter's own start-up (site-packages hooks included), which qspt
# cannot change.
import time

START = time.perf_counter()

import os  # noqa: E402
import sys  # noqa: E402


def _setup(root: str) -> float:
    """Import qspt.cli from ROOT/src and create the cache directory."""
    sys.path.insert(0, os.path.join(root, "src"))
    import qspt.cli
    os.makedirs(qspt.cli.cache_dir())
    setup_s = time.perf_counter() - START
    expected = os.path.realpath(os.path.join(root, "src", "qspt"))
    found = os.path.realpath(os.path.dirname(qspt.cli.__file__))
    if found != expected:
        raise SystemExit(f"qspt imported from {found}, expected {expected}")
    return setup_s


def main(argv: list[str]) -> int:
    if len(argv) != 5:
        print(__doc__, file=sys.stderr)
        return 2
    root, workload, seed, trace = argv[1:]
    result = {"setup_s": _setup(root)}
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    import json
    from workloads import run_workload
    result.update(run_workload(workload, int(seed), trace == "1"))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
