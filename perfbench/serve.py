"""Traced ``repro serve``: the server process of a traced service run.

    python3 perfbench/serve.py --out spans.json -- serve --workers 1 ...

Installs the benchmark's span wrappers before the gateway starts, runs
the stock ``repro`` command line with the arguments after ``--``, and
when the server shuts down takes the wrappers off and writes its spans
to ``--out``. ``src`` must be on ``PYTHONPATH``.
"""

from __future__ import annotations

import argparse
import json
import sys

from tracer import Patches, Tracer, clock, install_server


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True)
    parser.add_argument("command", nargs=argparse.REMAINDER)
    args = parser.parse_args()
    command = args.command[1:] if args.command[:1] == ["--"] \
        else args.command

    start = clock()
    tracer = Tracer("server")
    patches = Patches()
    with tracer.span("setup.import"):
        import repro  # noqa: F401
        from repro.cli import main as repro_main
        from repro.service.gateway import ServiceGateway
    imported = clock()
    install_server(tracer, patches)
    tracer.wrap(patches, ServiceGateway, "serve_forever", None,
                pre=lambda a, k: tracer.sample(
                    "setup.build_s", clock() - imported))
    try:
        code = repro_main(command)
    finally:
        patches.undo()
    tracer.sample("setup.import_s", imported - start)
    with open(args.out, "w") as handle:
        json.dump(tracer.dump(), handle)
    return code


if __name__ == "__main__":
    sys.exit(main())
