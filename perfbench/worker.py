"""Run one batch of a workload in a fresh interpreter and print one JSON line.

    python3 perfbench/worker.py --workload census [--trace] [--setup-only]

Set-up (importing ggslab, building groups, generating inputs) is timed on its
own; then every item runs and is checked in turn. With --trace the layer
tracer is installed before set-up (so groups built there are seen) and the
per-layer values are added to the output. Without it, the output lists any
traced wrapper found in ggslab, which must be none.

Without --trace, every timed step also gets a reading of how fast the machine
ran at the time (see SpeedMeter), so that run.py can take out the slowdowns
other tenants of a shared machine cause.
"""

import argparse
import json
import os
import resource
import signal
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import tracer as layer_tracer  # noqa: E402
import workloads  # noqa: E402

PROBE_LOOPS = 20_000
PROBE_BURST = 8  # probes run back to back before and after each step
PROBE_INTERVAL_S = 0.1  # and one this often while the step runs


def probe():
    """Seconds a fixed pure-Python loop that does not touch ggslab takes now."""
    start = time.perf_counter()
    seen = {}
    acc = 0
    for i in range(PROBE_LOOPS):
        acc = (acc * 31 + i) % 1000003
        seen[acc & 1023] = i
    return time.perf_counter() - start


class SpeedMeter:
    """Times steps, and reads the machine's speed before, during and after each.

    During a step an interval timer runs the probe from a signal handler, in
    this thread, every PROBE_INTERVAL_S; the time those probes take is left
    out of the step's time. A step's probe seconds is the mean of all its
    readings, so a long step is judged by the speed it actually ran at, not
    only by the speed at its ends."""

    def __init__(self, enabled):
        self.enabled = enabled
        self.readings = []

    def _on_alarm(self, signum, frame):
        self.readings.append(probe())

    def time(self, fn):
        """(fn(), seconds fn took, mean probe seconds or None when disabled)."""
        if not self.enabled:
            start = time.perf_counter()
            result = fn()
            return result, time.perf_counter() - start, None
        self.readings = [probe() for _ in range(PROBE_BURST)]
        previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        start = time.perf_counter()
        try:
            result = fn()
        finally:
            # stop the timer before reading the clock, so every probe that
            # ran inside the step is also inside the timed interval
            signal.setitimer(signal.ITIMER_REAL, 0)
            elapsed = time.perf_counter() - start
            signal.signal(signal.SIGALRM, previous)
        sec = elapsed - sum(self.readings[PROBE_BURST:])
        self.readings.extend(probe() for _ in range(PROBE_BURST))
        return result, sec, statistics.mean(self.readings)


def run_item(item):
    """(answer, failure reason or None); an item that raises counts as failed."""
    try:
        answer = item.run()
        return answer, item.check(answer)
    except Exception as exc:
        return None, f"{type(exc).__name__}: {exc}"


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    tracer = None
    if args.trace:
        import ggslab.cli  # noqa: F401  (every traced module must be loaded)
        tracer = layer_tracer.Tracer().install()
    meter = SpeedMeter(enabled=tracer is None)
    items, setup_s, setup_probe_s = meter.time(lambda: workloads.build(args.workload))
    out = {"setup_s": setup_s, "setup_probe_s": setup_probe_s}
    if not args.setup_only:
        # [(name, seconds, failure reason or None, probe seconds)]
        rows = []
        stdout_bytes = 0
        for item in items:
            (answer, reason), sec, probe_s = meter.time(lambda: run_item(item))
            rows.append((item.name, sec, reason, probe_s))
            if args.workload == "verify" and answer is not None:
                stdout_bytes += len(answer[1])
        out.update(
            wall_s=sum(row[1] for row in rows),
            items=rows,
            peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
        if tracer is not None:
            tracer.uninstall()
            out["layers"] = layer_tracer.layer_values(tracer, stdout_bytes)
            out["span_self_total_s"] = sum(s.self_s for s in tracer.stats.values())
    if tracer is None:
        out["wrapped"] = layer_tracer.find_wrapped()
    sys.stdout.write(json.dumps(out) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
