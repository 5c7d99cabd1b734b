"""Run one matchctl command the way the ``matchctl`` console script does.

    python3 perfbench/cli_child.py RESULT_FILE SPANS_FILE RUN_ID <matchctl arguments>

Same exit code and artifacts as ``matchctl <arguments>``.  The reference
kernel runs on a timer while the package is imported and the command
runs (untraced only) and five times when it returns, so the command's
time can be scaled by the speed this process saw.  RESULT_FILE gets the
kernel times, the time they took and the import time of ``matchctl.cli``
(numpy included).  Unless SPANS_FILE is ``-``, spans sit at the layer
boundaries and are written there; fixture field objects are traced by
wrapping the ``load_config`` the CLI calls.
"""
import dataclasses
import json
import sys
import time

T0 = time.perf_counter()
from calibrate import Sampler, kernel_seconds  # noqa: E402  (imports numpy)


def main() -> int:
    result_path, spans_path, run_id, *argv = sys.argv[1:]
    traced = spans_path != "-"
    sampler = Sampler()
    if not traced:    # kernel runs inside spans would count as layer time
        sampler.start()
    import matchctl.cli as cli
    t1 = time.perf_counter()
    import_s = t1 - T0 - sampler.inside(T0, t1)
    rec = None
    if traced:
        from spans import Recorder
        rec = Recorder(run_id)
        rec.op = 0
        rec.install()
        load = cli.load_config

        def load_traced(path):
            cfg = load(path)
            return dataclasses.replace(cfg, fixture=rec.bundle(cfg.fixture))

        cli.load_config = load_traced
    try:
        code = cli.main(argv)
    finally:
        if traced:
            rec.uninstall()
        else:
            sampler.stop()
    k0 = time.perf_counter()
    kernels = sampler.walls + kernel_seconds()
    calibration_s = sum(sampler.walls) + time.perf_counter() - k0
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump({"kernels": kernels, "calibration_s": calibration_s,
                   "import_s": import_s}, fh)
    if rec is not None:
        rec.write(spans_path, import_s=import_s, exit=code)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
