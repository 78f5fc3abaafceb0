"""One timed repetition, run in a fresh interpreter.

Reads a job from stdin: ``{"argvs": [[...], ...], "trace": bool,
"spans": path or null}``.  Times the import of ``cmperiods.cli`` (set-up)
and each ``cli.main`` call from parse to emitted report, capturing the
call's standard output for checking.  Prints one JSON object on the last
line of standard output.

Every time is reported twice: as wall-clock seconds, and in reference
seconds.  The machine this benchmark was defined on is shared, and other
tenants' load slows it by up to 2x for minutes at a time, invisibly to
process accounting.  So a SIGALRM timer runs a fixed probe every
``PROBE_INTERVAL_S`` while anything is timed.  The probe is small
interpreter-bound work of the library's kind: integer arithmetic (a
Euclidean reduction, as in a fraction) and dict churn.
``REFERENCE_PROBE_S / probe time`` is the machine's speed at that moment
relative to an uncontended core.  A timed interval's reference
time is its wall time minus the probe time inside it, times the mean
speed of the probes inside it (or of the nearest probe, for an interval
too short to hold one).

Set-up is meant to cost what a command-line invocation pays to import
the library, so nothing the library might import itself (json,
fractions, io, ...) is imported before the timed import: only the
interpreter-level modules the probe needs.
"""

from __future__ import annotations

import gc
import signal
import sys
import time

PROBE_INTERVAL_S = 0.005
# The probe's duration on an uncontended core of the 2-core x86-64 machine,
# Python 3.11, on which the benchmark was defined.  It only sets the scale.
REFERENCE_PROBE_S = 0.000210

clock = time.perf_counter


class SpeedProbe:
    def __init__(self):
        self.samples: list[tuple[float, float]] = []  # (start, duration)

    def _probe(self, signum, frame) -> None:
        enabled = gc.isenabled()
        gc.disable()  # a collection here would be the library's garbage
        t = clock()
        acc: dict = {}
        for i in range(80):
            num, den = 5 * (i + 1), 6 * (i + 3)
            a, b = num, den
            while b:
                a, b = b, a % b
            num, den = num // a, den // a
            key = (num % 11, i % 5)
            acc[key] = acc.get(key, 0) + num * 1000 // den
            acc = {k: v for k, v in acc.items() if v}
        self.samples.append((t, clock() - t))
        if enabled:
            gc.enable()

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)

    def reference_seconds(self, t0: float, t1: float) -> float:
        inside = [d for t, d in self.samples if t0 <= t < t1]
        probed = sum(inside)
        if not inside:
            nearest = min(self.samples, key=lambda s: abs(s[0] - t0), default=(t0, REFERENCE_PROBE_S))
            inside = [nearest[1]]
        speed = sum(REFERENCE_PROBE_S / d for d in inside) / len(inside)
        return (t1 - t0 - probed) * speed


def main() -> int:
    raw_job = sys.stdin.read()
    probe = SpeedProbe()
    probe.start()
    t0 = clock()
    import cmperiods.cli as cli

    intervals = {"setup": (t0, clock())}
    import contextlib
    import io
    import json
    import resource
    import traceback

    job = json.loads(raw_job)
    tracer = None
    if job["trace"]:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    calls = []
    for k, argv in enumerate(job["argvs"]):
        out = io.StringIO()
        failure = None
        if tracer is not None:
            tracer.call_id = k
        t0 = clock()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                rc = cli.main(argv)
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 2
        except Exception:
            rc, failure = None, traceback.format_exc()
        intervals[k] = (t0, clock())
        calls.append({"rc": rc, "out": out.getvalue(), "failure": failure})
    probe.stop()

    for k, call in enumerate(calls):
        t0, t1 = intervals[k]
        call["wall_s"] = t1 - t0
        call["seconds"] = probe.reference_seconds(t0, t1)
    periods = sys.modules["cmperiods.periods"]
    cache = getattr(getattr(periods, "_reduction_lattice", None), "cache_info", None)
    result = {
        "setup_s": probe.reference_seconds(*intervals["setup"]),
        "setup_wall_s": intervals["setup"][1] - intervals["setup"][0],
        "calls": calls,
        "probes": len(probe.samples),
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "lattice_cache": cache()._asdict() if cache else None,
        "trace": None,
    }
    if tracer is not None:
        result["trace"] = {"groups": tracer.groups(), "spans": tracer.spans, "rebound": tracer.rebound}
        if job.get("spans"):
            tracer.write(job["spans"])
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
