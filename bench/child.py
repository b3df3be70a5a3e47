"""Run one ``gentile`` CLI invocation in this fresh interpreter.

Usage: python3 child.py META_PATH TRACE INVOCATION_ID -- ARGV...

Times the import of ``gentile.cli`` (set-up) and the in-process
``gentile.cli.main(ARGV)`` call, with stdout and stderr captured in memory
so that only the program's own work is timed.  Writes a JSON record of the
timings, peak RSS and, with TRACE=1, the layer spans to META_PATH, then
copies the captured stdout and stderr to the real streams.
"""

import io
import json
import resource
import sys
import traceback
from time import perf_counter


def peak_rss_kb() -> int:
    """Peak resident set of this process since it was exec'd.

    On Linux ru_maxrss also counts the parent's resident set when the
    child was started with vfork, as subprocess does, so VmHWM is read
    where the kernel provides it.
    """
    try:
        with open("/proc/self/status", encoding="ascii") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def run(meta_path: str, trace: bool, invocation_id: int, argv: list) -> int:
    start = perf_counter()
    import gentile.cli as cli
    setup_s = perf_counter() - start

    tracer = None
    if trace:
        from tracer import Tracer
        tracer = Tracer(invocation_id).install()

    out, err = io.StringIO(), io.StringIO()
    real_out, real_err = sys.stdout, sys.stderr
    sys.stdout, sys.stderr = out, err
    start = perf_counter()
    try:
        rc = cli.main(argv)
    except Exception:  # an uncaught program error is a result, not a crash
        traceback.print_exc(file=err)
        rc = -1
    finally:
        main_s = perf_counter() - start
        sys.stdout, sys.stderr = real_out, real_err

    meta = {
        "setup_s": setup_s,
        "main_s": main_s,
        "rc": rc,
        "peak_rss_kb": peak_rss_kb(),
        "module_file": cli.__file__,
    }
    if tracer is not None:
        tracer.uninstall()
        meta.update(tracer.dump())
    with open(meta_path, "w", encoding="utf-8") as handle:
        json.dump(meta, handle)
    sys.stdout.buffer.write(out.getvalue().encode("utf-8"))
    sys.stderr.buffer.write(err.getvalue().encode("utf-8"))
    return 0


if __name__ == "__main__":
    if len(sys.argv) < 5 or sys.argv[4] != "--":
        sys.stderr.write(__doc__)
        sys.exit(64)
    sys.exit(run(sys.argv[1], sys.argv[2] == "1", int(sys.argv[3]),
                 sys.argv[5:]))
