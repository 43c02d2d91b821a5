"""One fresh ``spinbus`` CLI process, timed from the inside.

    python3 child.py --src SRC --config CFG --result OUT.json
                     [--override K=V ...] [--trace SPAN_DIR] [--setup-only]
                     -- <spinbus argv>

Times ``import spinbus.cli`` plus ``load_config`` of the generated config
(the set-up a user pays on every invocation), then ``cli.main(argv)`` until
it returns, by which point every output file is written. With --trace the
modules are wrapped after set-up, so set-up is always measured untraced.
The result is written as JSON to OUT.json; the CLI's own stdout goes to
stderr so that it cannot mix with the benchmark's result line.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time


def main() -> int:
    argv = sys.argv[1:]
    split = argv.index("--") if "--" in argv else len(argv)
    ap = argparse.ArgumentParser()
    ap.add_argument("--src", required=True)
    ap.add_argument("--config", required=True)
    ap.add_argument("--result", required=True)
    ap.add_argument("--override", action="append", default=[])
    ap.add_argument("--trace", metavar="SPAN_DIR")
    ap.add_argument("--setup-only", action="store_true")
    opts = ap.parse_args(argv[:split])
    cli_argv = argv[split + 1:]
    sys.path.insert(0, opts.src)

    t0 = time.perf_counter()
    import spinbus.cli as cli
    t1 = time.perf_counter()
    cli.load_config(opts.config, opts.override)
    t2 = time.perf_counter()
    result = {"import_s": t1 - t0, "load_config_s": t2 - t1, "setup_s": t2 - t0}

    if not opts.setup_only:
        if opts.trace:
            import spans
            tracer = spans.install(opts.trace)
        sys.stdout.flush()
        real_stdout, sys.stdout = sys.stdout, sys.stderr
        try:
            t3 = time.perf_counter()
            rc = cli.main(cli_argv)
            t4 = time.perf_counter()
        finally:
            sys.stdout = real_stdout
        if opts.trace:
            tracer.flush()
        result.update(rc=rc, scan_wall_s=t4 - t3)
    result["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    with open(opts.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
