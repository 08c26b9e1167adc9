"""One fresh, single-threaded benchmark worker process.

    python3 perfbench/worker.py --workload W --seed N --round R --out PATH
        [--trace [--spans PATH]] [--setup-only]

The first thing it does is import the workload's entry module and time
that import (the set-up time); with --setup-only it stops there.  Then it
builds the requests of the seed's round R, sends them in a closed loop
(one client, the next request only after the previous answer is checked)
under a per-request time limit, and writes its measurements to PATH as
JSON.

A speed probe (perfbench/speed.py) runs from before the import to the end
of the loop.  Its time is taken out of every time the worker reports, and
the record carries the speed factor of the import and of the loop.  With
--trace, the probe stops after the import, the layer tracer is installed
after the requests are built, and its counters and spans are written too.
"""

import atexit
import importlib
import sys
import time

import speed

# Samples taken straight after the import, so the import's speed factor
# rests on enough samples however short the import is.
SETUP_SPEED_SAMPLES = 20

if __name__ == "__main__":
    PROBE = speed.SpeedProbe()
    PROBE.start()
    atexit.register(PROBE.stop)
    _workload = sys.argv[sys.argv.index("--workload") + 1]
    _entry = {"battery": "permlab.suite"}.get(_workload, "permlab.cli")
    _first, _spent = PROBE.samples, PROBE.spent
    _start = time.perf_counter()
    importlib.import_module(_entry)
    IMPORT_S = time.perf_counter() - _start - (PROBE.spent - _spent)
    for _ in range(SETUP_SPEED_SAMPLES):
        PROBE.sample()
    IMPORT_SPEED = PROBE.speed(_first, PROBE.samples)

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402

import workloads  # noqa: E402


class RequestTimeout(BaseException):
    """Raised by SIGALRM; a BaseException so no library handler catches it."""


def _on_alarm(signum, frame):
    raise RequestTimeout


def closed_loop(requests, limit_s, probe, tracer=None) -> dict:
    signal.signal(signal.SIGALRM, _on_alarm)
    latencies = []
    intervals = []
    failures = []
    result = None
    first, spent = probe.samples, probe.spent
    start = time.perf_counter()
    for req in requests:
        if tracer is not None:
            tracer.request = req.rid
        probed = probe.spent
        sent = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, limit_s)
        try:
            result = req.run()
            reason = None
        except RequestTimeout:
            reason = f"no answer within the {limit_s:g} s limit"
        except Exception as exc:  # a library bug is a failed request, not a crash
            reason = f"raised {type(exc).__name__}: {exc}"
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        done = time.perf_counter()
        latencies.append(done - sent - (probe.spent - probed))
        intervals.append((sent, done))
        if reason is None:
            try:
                reason = req.check(result)
            except Exception as exc:
                reason = f"answer check raised {type(exc).__name__}: {exc}"
        if reason is not None:
            failures.append({"request": req.rid, "group": req.group, "name": req.name,
                             "reason": reason})
    wall_s = time.perf_counter() - start - (probe.spent - spent)
    last = probe.samples
    round_speed = probe.speed(first, last) if last > first else None
    return {"wall_s": wall_s, "latencies_s": latencies, "failures": failures,
            "speed": round_speed, "speed_samples": last - first,
            "latency_speeds": probe.local_speeds(intervals, round_speed),
            "last_result": result}


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=sorted(workloads.REQUESTS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--round", type=int, default=0)
    parser.add_argument("--out", required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--spans")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()
    record = {"import_s": IMPORT_S, "import_speed": IMPORT_SPEED}
    if args.setup_only:
        PROBE.stop()
    else:
        requests = workloads.REQUESTS[args.workload](
            args.seed, args.round, workloads.load_expected()
        )
        tracer = None
        if args.trace:
            from tracer import Tracer

            PROBE.stop()
            tracer = Tracer()
            tracer.install()
        loop = closed_loop(requests, workloads.TIME_LIMIT_S[args.workload], PROBE, tracer)
        PROBE.stop()
        record.update(
            requests=len(requests),
            wall_s=loop["wall_s"],
            latencies_s=loop["latencies_s"],
            latency_speeds=loop["latency_speeds"],
            speed=loop["speed"],
            speed_samples=loop["speed_samples"],
            failures=loop["failures"],
            peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        )
        if args.workload == "battery" and not loop["failures"]:
            record["properties_s"] = {r.name: r.seconds for r in loop["last_result"]}
        if tracer is not None:
            record["layers"] = tracer.summary()
            if args.spans:
                tracer.write_spans(args.spans)
    with open(args.out, "w") as fh:
        json.dump(record, fh)


if __name__ == "__main__":
    main()
