"""Front-door benchmark of the serving platform.

    python3 perfbench/run.py --workload hot_reads --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  Builds the served bundle from the
checkout's ``src/``, boots ``python -m repro.serving.gateway`` in process
mode, drives it with a seeded open-loop HTTP load, checks the answers
and prints one JSON result as the last line of standard output:
end-to-end metrics with ``--trace 0``, per-layer metrics with
``--trace 1``.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys
from pathlib import Path

WORKLOADS = ("hot_reads", "cold_compute", "grow_tenants")
# The benchmark and the gateway it boots (which inherits the environment)
# hash strings alike.  Fact ranking z-normalises candidate scores in
# set-iteration order, so its model_score differs in the last bits
# between interpreters with different hash seeds; the inline-parity check
# must compare like with like.
HASH_SEED = "0"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        os.execve(sys.executable, [sys.executable, *sys.argv],
                  {**os.environ, "PYTHONHASHSEED": HASH_SEED})
    # A shell without job control starts background commands with SIGINT
    # ignored, and the gateway would inherit that and outlive its SIGINT
    # teardown.  A handler (unlike SIG_IGN) is reset to the default by exec.
    if signal.getsignal(signal.SIGINT) == signal.SIG_IGN:
        signal.signal(signal.SIGINT, signal.default_int_handler)
    checkout = Path.cwd()
    if not (checkout / "src" / "repro" / "serving" / "gateway.py").is_file():
        print("perfbench: no src/repro/serving/gateway.py here; run from a checkout's root",
              file=sys.stderr)
        return 2
    sys.path.insert(1, str(checkout / "src"))
    import bench

    try:
        result = bench.run(args.workload, args.seed, args.seconds, bool(args.trace), checkout)
    except bench.RunFailed as exc:
        print(f"perfbench: run failed: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
