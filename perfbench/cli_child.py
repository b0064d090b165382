"""Run one ``gmi`` command in this process with its layers traced.

Usage: cli_child.py SPANS_OUT MODULES GMI_ARGS...

MODULES is a comma-separated list of the modules the command loads; they
are imported inside the ``cli.import`` span before the command runs.  The
spans go to SPANS_OUT as JSON and the process exits with the command's code.
"""

import importlib
import json
import sys

import spans


def main() -> int:
    out, modules, argv = sys.argv[1], sys.argv[2].split(","), sys.argv[3:]
    tracer = spans.Tracer()
    root = tracer.begin("cli.child")
    sid = tracer.begin("cli.import")
    for name in modules:
        importlib.import_module(name)
    tracer.end(sid)
    tracer.install()
    import gmi.cli

    code = gmi.cli.main(argv)
    tracer.end(root)
    with open(out, "w") as fh:
        json.dump(tracer.dump(), fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
