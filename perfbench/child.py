"""One fresh-process qpflab invocation, timed from ``main()`` entry to exit.

    python3 child.py SRC RESULT.json [--trace] [--setup-only] -- <qpflab args>

SRC is the directory holding the ``qpflab`` package.  With ``--setup-only``
the process imports ``qpflab.cli``, loads the manifest and exits; the parent
times the whole process as set-up time.  Otherwise it runs the CLI and writes
``{"exit": code, "wall_s": seconds[, "layers": {...}]}`` to RESULT.json.
"""

import json
import sys
from pathlib import Path
from time import perf_counter


def main() -> int:
    head, argv = sys.argv[1:sys.argv.index("--")], sys.argv[sys.argv.index("--") + 1:]
    src, result = head[0], Path(head[1])
    sys.path.insert(0, src)
    from qpflab.cli import main as cli_main
    if "--setup-only" in head:
        from qpflab.manifest import load_manifest
        load_manifest(argv[argv.index("--manifest") + 1])
        return 0
    tracer = None
    if "--trace" in head:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    t0 = perf_counter()
    code = cli_main(argv)
    wall = perf_counter() - t0
    record = {"exit": code, "wall_s": wall}
    if tracer is not None:
        record["layers"] = tracer.layer_metrics(wall)
    result.write_text(json.dumps(record), encoding="ascii")
    return 0


if __name__ == "__main__":
    sys.exit(main())
