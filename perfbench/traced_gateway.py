"""The gateway's own entry point, with the benchmark's span recorders armed.

    python perfbench/traced_gateway.py <spans-dir> <gateway args...>

Installs :mod:`spans` around every layer boundary, then runs
``repro.serving.gateway.main`` with the remaining arguments — the same
server the untraced run boots with ``python -m repro.serving.gateway``.
The gateway's spans are written to ``<spans-dir>`` when it exits (SIGINT);
each worker process writes its own at exit.
"""

from __future__ import annotations

import sys

import spans


def main(argv: list[str]) -> int:
    directory, gateway_args = argv[0], argv[1:]
    spans.install(directory)
    from repro.serving import gateway

    try:
        return gateway.main(gateway_args)
    finally:
        spans.dump(directory, "gateway")


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
