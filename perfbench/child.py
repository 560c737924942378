"""One CLI invocation, as the benchmark's child process.

    python3 perfbench/child.py --result PATH [--trace] -- <idcoverage argv>
    python3 perfbench/child.py --warmup

Imports ``idcoverage`` from the checkout's ``src/``, installs the set-up
marker (and, with ``--trace``, the spans), runs ``idcoverage.cli.main`` once
and writes what it observed to PATH as JSON.  Its exit code is the CLI's.
Peak RSS is read here, from this process's own rusage.
"""

import json
import resource
import sys
from pathlib import Path

from spans import Tracer

ROOT = Path(__file__).resolve().parent.parent


def _import_cli():
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    from idcoverage import cli
    if not Path(cli.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"idcoverage was imported from {cli.__file__}, not {src}")
    return cli


def main(argv):
    if argv == ["--warmup"]:
        _import_cli()
        return 0
    split = argv.index("--")
    opts, cli_argv = argv[:split], argv[split + 1:]
    result_path = opts[opts.index("--result") + 1]
    traced = "--trace" in opts

    cli = _import_cli()
    tracer = Tracer()
    missing = tracer.install(traced)
    code = cli.main(cli_argv)
    maxrss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    distinct, rows = (tracer.span("trace.bookkeeping", tracer.distinct_rows)()
                      if traced else (0, 0))
    with open(result_path, "w") as fh:
        json.dump({
            "setup_end": tracer.setup_end,
            "maxrss_kb": maxrss_kb,
            "missing": missing,
            "spans": tracer.spans,
            "ecf_terms": tracer.ecf_terms,
            "bytes_written": tracer.bytes_written,
            "distinct_rows": distinct,
            "ecf_rows": rows,
        }, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
