"""Run ``ppm ARGS`` exactly as the ``ppm`` console script does.

    python3 perfbench/launch.py mine FILE --period 50

This is ``sys.exit(repro.cli.main())`` with two additions the benchmark
needs from inside the program process:

* ``PERFBENCH_RSS_FILE=PATH`` — at exit, write the process's peak
  resident set (``VmHWM`` from ``/proc/self/status``, in kB) to PATH.
* ``PERFBENCH_TRACE_FILE=PATH`` — before running, wrap every layer
  boundary listed in ``pbench/trace.py`` in a span; at exit, write the
  spans to PATH as JSON lines.  The first span, ``process.import``, is the
  import of ``repro.cli``.

Standard output is line-buffered, as on a terminal, so the benchmark sees
each line (``ppm serve``'s "listening" line, ``ppm stream``'s windows) when
it is printed.
"""

from __future__ import annotations

import atexit
import os
import sys
import time


def _write_peak_rss(path: str) -> None:
    try:
        with open("/proc/self/status", encoding="ascii") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    with open(path, "w", encoding="ascii") as out:
                        out.write(line.split()[1] + "\n")
                    return
    except OSError:
        pass


def main() -> int:
    started = time.perf_counter()
    sys.stdout.reconfigure(line_buffering=True)
    rss_file = os.environ.get("PERFBENCH_RSS_FILE")
    if rss_file:
        atexit.register(_write_peak_rss, rss_file)
    trace_file = os.environ.get("PERFBENCH_TRACE_FILE")
    if not trace_file:
        from repro.cli import main as ppm_main

        return ppm_main(sys.argv[1:])

    from pathlib import Path

    from pbench import trace

    tracer = trace.Tracer()
    span = tracer.open("process.import")
    span[trace.START] = started
    import repro.cli

    tracer.close(span)
    trace.install(tracer)
    atexit.register(tracer.dump, Path(trace_file))
    return repro.cli.main(sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
