"""One step of a benchmark sample, run by run.py in a fresh interpreter.

    python3 perfbench/child.py setup                 import instanton only
    python3 perfbench/child.py verify                the thirteen acceptance checks
    python3 perfbench/child.py model G SIGN THETA    model_for then eigen_verify (THETA "-": none)
    python3 perfbench/child.py cli ARG...            exactly what `python -m instanton ARG...` runs

The environment names the result file (PERFBENCH_RESULT), the sample id
(PERFBENCH_SAMPLE) and whether to trace every layer boundary
(PERFBENCH_TRACE=1) or only model_for and eigen_verify (0).  The result file
receives the outputs, timestamps, peak RSS, the calibration points and the
trace summary as JSON.  In `cli` mode standard output is the command's own and
nothing else.

From its first statement to its end the child runs a fixed calibration loop
every 20 ms of wall time, so that run.py can measure its times at a reference
machine speed (see SpeedClock there).  Do not change the loop.
"""

import signal
import time
from fractions import Fraction

T_START = time.perf_counter()
CALIBRATION_INTERVAL_S = 0.02
calibration = []


def _calibration_work() -> None:
    s = Fraction(0)
    for i in range(1, 80):
        s += Fraction(1, i)


def _on_alarm(signum, frame) -> None:
    t0 = time.perf_counter()
    _calibration_work()
    calibration.append((t0, time.perf_counter() - t0))


signal.signal(signal.SIGALRM, _on_alarm)
signal.setitimer(signal.ITIMER_REAL, CALIBRATION_INTERVAL_S, CALIBRATION_INTERVAL_S)

import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import runpy  # noqa: E402
import sys  # noqa: E402

import instanton  # noqa: E402,F401

T_IMPORTED = time.perf_counter()

import layertrace  # noqa: E402


def run_verify() -> list:
    """A1..A13 in the order run_suite("all") uses; A6 gets no cache dir."""
    from instanton import acceptance
    out = []
    for i in range(1, 14):
        try:
            res = getattr(acceptance, f"check_a{i}")()
            out.append([res.criterion, res.passed, res.detail])
        except Exception as exc:  # a raised check is a failed operation, not a crash
            out.append([f"A{i}", False, f"exception: {type(exc).__name__}: {exc}"])
    return out


def run_model(g: str, sign: str, theta: str) -> dict:
    from instanton import floer
    th = None if theta == "-" else Fraction(theta)
    model = floer.model_for(int(g), sign, th)
    report = floer.eigen_verify(int(g), sign, th)
    return {"dim": model.dim, "report": report.to_json()}


def run_cli(args: list) -> int:
    sys.argv = ["floer"] + args
    try:
        runpy.run_module("instanton", run_name="__main__", alter_sys=True)
    except SystemExit as exc:
        if exc.code is None or isinstance(exc.code, int):
            return exc.code or 0
        return 1    # sys.exit("message")
    return 0


def main() -> int:
    mode, args = sys.argv[1], sys.argv[2:]
    tracer = layertrace.Tracer(os.environ.get("PERFBENCH_SAMPLE", ""))
    doc = {"t_start": T_START, "t_imported": T_IMPORTED}
    if mode != "setup":
        full = os.environ.get("PERFBENCH_TRACE") == "1"
        layertrace.install(tracer, None if full else layertrace.TIMING_ONLY)
    code = 0
    if mode == "verify":
        doc["output"] = run_verify()
    elif mode == "model":
        doc["output"] = run_model(*args)
    elif mode == "cli":
        code = run_cli(args)
        sys.stdout.flush()
    elif mode != "setup":
        raise SystemExit(f"unknown mode {mode!r}")
    signal.setitimer(signal.ITIMER_REAL, 0, 0)
    doc["t_end"] = time.perf_counter()
    doc["calibration"] = calibration
    doc["t_run_entry"] = tracer.run_entry
    doc["exit"] = code
    doc["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if mode != "setup":
        layertrace.memo_entries(tracer)
        doc["trace"] = tracer.summary()
    with open(os.environ["PERFBENCH_RESULT"], "w") as fh:
        json.dump(doc, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
