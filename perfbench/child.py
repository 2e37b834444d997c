"""One measured CLI call in a fresh interpreter.

    python3 child.py RESULT_JSON TRACE LAUNCH_NS CLI_ARG...

Imports ``qcbounds.cli`` (set-up time is counted from ``LAUNCH_NS``, the
parent's ``time.monotonic_ns()`` just before it started this process),
then times ``qcbounds.cli.main(CLI_ARG...)``.  With ``TRACE`` = 1 the
hooks of ``spans.HOOKS`` are installed after set-up and the recorded
spans are written to the result file.  Nothing here imports NumPy before
``qcbounds`` does, so its import cost stays inside set-up.

A fixed calibration kernel, independent of qcbounds, is timed right
before and right after ``main()``.  On a shared machine whose speed
drifts over seconds to minutes, the parent divides that drift out.
"""

import json
import resource
import sys
import time

CALIBRATION_ROUNDS = 3000


def calibrate(rounds: int = CALIBRATION_ROUNDS) -> int:
    """Time a fixed mix of interpreter work and small NumPy calls, in ns."""
    import numpy as np

    m = np.add.outer(np.arange(4.0), np.arange(4.0)) + np.eye(4)
    acc = 0.0
    start = time.perf_counter_ns()
    for i in range(rounds):
        _, v = np.linalg.eigh(m)
        acc += float(np.einsum("ij,jk,ki->", m, v, v.T))
        acc += len(repr({"i": i, "w": [i, acc]}))
    return time.perf_counter_ns() - start


def main() -> int:
    result_path, trace, launch_ns = sys.argv[1], sys.argv[2] == "1", int(sys.argv[3])
    cli_argv = sys.argv[4:]

    import qcbounds.cli

    imported_ns = time.monotonic_ns()
    entry = qcbounds.cli.main
    recorder, absent = None, []
    if trace:
        import spans

        recorder = spans.Recorder()
        absent = spans.install(recorder)
        entry = recorder.wrap(spans.ROOT_SPAN, entry)

    calibrate(rounds=10)  # first calls of each NumPy routine are slower
    calibration_ns = calibrate()
    start = time.perf_counter_ns()
    rc = entry(cli_argv)
    main_ns = time.perf_counter_ns() - start
    calibration_ns += calibrate()

    result = {
        "rc": rc,
        "setup_ns": imported_ns - launch_ns,
        "main_ns": main_ns,
        "calibration_ns": calibration_ns / 2,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "absent_hooks": absent,
        "trace": recorder.dump() if recorder else None,
    }
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
