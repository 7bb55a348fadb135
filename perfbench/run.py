"""Benchmark harness for ``nmr``: one workload, one seed, one JSON line.

    python3 perfbench/run.py --workload dl_chain --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; ``nmr`` is imported from its
``src/`` directory and nowhere else.  Every request goes through
``nmr.cli.main(argv)`` in this process, one at a time (a closed loop with
one client), with stdout captured.  Each answer is checked against its
reference right after its call, outside the timed region.

``--trace 0`` times calls with no wrapper installed and reports the
end-to-end metrics.  Their times are scaled to a fixed machine speed (see
``calibrate``), because the shared host this was tuned on runs the same
code up to 1.7 times slower for a minute at a time.  ``--trace 1``
solves two fixed sets of instances, the first plain and the second with
spans around every public layer function, and reports per-call layer
metrics and the tracing overhead; its counts repeat exactly for a given
seed, and its answers are checked only after the wrappers are removed.  Spans are written to
``.perfbench/spans-<workload>-<seed>.json``.

The last line of stdout is the result object:
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"

sys.path.insert(0, str(HERE))
import workloads  # noqa: E402

#: Untraced runs time at least this many calls, so that ten lie beyond p90.
MIN_CALLS = 100
#: Hard stop for the timed loop, whatever --seconds says.
MAX_LOOP_S = 120.0
#: Instances generated (with references) during set-up.
POOL = 128
#: Set-up is measured this many times, each in a fresh interpreter.
SETUP_REPEATS = 9
#: ms that the two ``calibrate`` kernels take on the reference machine: a
#: two-vCPU x86-64 VM, CPython 3.11, in its fastest state.  Scaled times are
#: in ms or s of that machine.
CAL_REF_PLAIN_MS, CAL_REF_WIDE_MS = 1.35, 2.6
#: The machine's speed is sampled again once this much call time has passed.
CAL_EVERY_MS = 50.0
#: Instances solved in each half of a traced run.
TRACED_CALLS = {"dl_chain": 60, "dl_nixon": 80, "ael_trace": 100, "check_small": 200}


def import_nmr():
    """Import ``nmr`` from this checkout's ``src/``, or exit 2."""
    if not (SRC / "nmr" / "__init__.py").is_file():
        print(f"no nmr sources under {SRC}", file=sys.stderr)
        sys.exit(2)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import nmr.cli

    if Path(nmr.cli.__file__).resolve().parent != SRC / "nmr":
        print(f"imported nmr from {nmr.cli.__file__}, not {SRC}", file=sys.stderr)
        sys.exit(2)
    return nmr.cli.main


class Pool:
    """Instances of one stream, written to ``workdir`` as they are needed."""

    def __init__(self, workload: str, seed: int, stream: str, workdir: Path):
        self.workload, self.seed, self.stream, self.workdir = workload, seed, stream, workdir
        workdir.mkdir(parents=True, exist_ok=True)
        self.items: list[tuple[workloads.Instance, str]] = []
        self._texts: set[str] = set()
        self._next = 0

    def get(self, i: int) -> tuple[workloads.Instance, str]:
        while len(self.items) <= i:
            inst = workloads.generate(self.workload, self.seed, self.stream, self._next)
            self._next += 1
            if inst.text in self._texts:   # each instance is distinct within a run
                continue
            self._texts.add(inst.text)
            path = self.workdir / f"{inst.key}{inst.suffix}"
            path.write_text(inst.text, encoding="utf-8")
            self.items.append((inst, str(path)))
        return self.items[i]


def call(main, argv: list[str]) -> tuple[int | None, str]:
    """One CLI request with stdout and stderr captured; None if it raised."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:   # a crash is a failed request, not a failed run
            code = None
    return code, out.getvalue()


def check(workload: str, inst, code, stdout) -> bool:
    return workloads.verify(inst, workload, code, stdout) is None


def set_up(workload: str, seed: int, workdir: Path):
    """Import nmr, generate the pool with its references, one warm-up call."""
    main = import_nmr()
    pool = Pool(workload, seed, "timed", workdir)
    pool.get(POOL - 1)
    inst, path = Pool(workload, seed, "warmup", workdir).get(0)
    code, _ = call(main, inst.argv(path))
    if code != 0:
        print(f"warm-up call exited with {code}", file=sys.stderr)
        sys.exit(3)
    return main, pool


_CAL_MASK = (1 << 1024) - 1


def calibrate() -> tuple[float, float]:
    """Wall ms of two fixed, nmr-free pure-Python kernels: the machine's speed now.

    The first is plain interpreter arithmetic, the second works on 1024-bit
    masks, dicts and tuples.  The host's slow spells slow the second more
    than the first; ``nmr`` calls do both kinds of work and are scaled by
    the sum, set-up is mostly plain interpreter work.  Neither kernel runs
    ``nmr``, so a change to ``nmr`` moves the scaled times in full.
    """
    t0 = time.perf_counter()
    acc = 0
    for i in range(20_000):
        acc += i * i % 7
    t1 = time.perf_counter()
    table, wide = {}, 0x5555 << 500
    for i in range(2_000):
        acc ^= ((wide >> (i & 63)) | (wide << (i & 31))) & _CAL_MASK
        table[i & 255] = (acc.bit_count(), i)
        tuple(table.get(j & 255) for j in range(i, i + 4))
    t2 = time.perf_counter()
    return (t1 - t0) * 1000, (t2 - t1) * 1000


def at_ref_speed(ms: float, cal: tuple[float, float]) -> float:
    """A call's ms scaled to reference speed by a calibration."""
    return ms * (CAL_REF_PLAIN_MS + CAL_REF_WIDE_MS) / sum(cal)


def measure_setup(workload: str, seed: int) -> float:
    """Median time of SETUP_REPEATS fresh set-ups, interpreter start included.

    Each set-up process ends with a calibration and prints its times; they
    are taken off the set-up's wall time, and the plain kernel's time scales
    the rest.  So the scale is that of the CPU the set-up ran on.
    """
    samples = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        done = subprocess.run([sys.executable, str(Path(__file__).resolve()), "--setup-only",
                               "--workload", workload, "--seed", str(seed)],
                              cwd=ROOT, check=True, stdout=subprocess.PIPE, text=True)
        wall_ms = (time.perf_counter() - t0) * 1000
        plain, wide = map(float, done.stdout.split()[-2:])
        samples.append((wall_ms - plain - wide) * CAL_REF_PLAIN_MS / plain / 1000)
    return statistics.median(samples)


def percentile(values: list[float], q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def timed_loop(main, workload, pool: Pool, seconds: float):
    """Solve fresh instances until ``seconds`` of call time and MIN_CALLS are reached.

    Returns each call's wall ms and the same scaled to reference speed by
    the latest calibration; one is taken before a call once CAL_EVERY_MS of
    call time has passed since the last.

    Peak memory is read after the first MIN_CALLS calls: the formula caches
    grow until they are full, so a later reading would depend on how many
    calls fit in the run, i.e. on speed.
    """
    times, scaled, failed = [], [], 0
    busy = 0.0
    peak_kb = 0
    for _ in range(3):   # warm the kernel itself
        calibrate()
    cal, since_cal = calibrate(), 0.0
    start = time.perf_counter()
    i = 0
    while (busy < seconds or i < MIN_CALLS) and time.perf_counter() - start < MAX_LOOP_S:
        inst, path = pool.get(i)
        argv = inst.argv(path)
        if since_cal >= CAL_EVERY_MS:
            cal, since_cal = calibrate(), 0.0
        t0 = time.perf_counter()
        code, stdout = call(main, argv)
        dt = time.perf_counter() - t0
        busy += dt
        since_cal += dt * 1000
        times.append(dt * 1000)
        scaled.append(at_ref_speed(dt * 1000, cal))
        if not check(workload, inst, code, stdout):
            failed += 1
        i += 1
        if i == MIN_CALLS:
            peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return times, scaled, failed, peak_kb or resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def run_untraced(workload, seed, seconds, workdir):
    setup_s = measure_setup(workload, seed)
    main, pool = set_up(workload, seed, workdir)
    times, scaled, failed, peak_kb = timed_loop(main, workload, pool, seconds)
    attempted = len(times)
    print(f"{attempted} calls, unscaled wall ms: p50 {statistics.median(times):.2f}, "
          f"p90 {percentile(times, 90):.2f}", file=sys.stderr)
    metrics = {
        "call_ms.p50": (statistics.median(scaled), "ms"),
        "call_ms.p90": (percentile(scaled, 90), "ms"),
        "calls_per_s": ((attempted - failed) / (sum(scaled) / 1000), "1/s"),
        "peak_rss_mb": (peak_kb / 1024, "MB"),
        "setup_s": (setup_s, "s"),
    }
    return attempted, failed, metrics


def solve_all(main, pool: Pool, n: int, tracer=None):
    """Solve the first n instances of a pool; returns call ms and the answers."""
    times, answers = [], []
    for i in range(n):
        inst, path = pool.get(i)
        argv = inst.argv(path)
        t0 = time.perf_counter()
        if tracer is None:
            code, stdout = call(main, argv)
        else:
            code, stdout = tracer.request(i, call, main, argv)
        times.append((time.perf_counter() - t0) * 1000)
        answers.append((inst, code, stdout))
    return times, answers


def run_traced(workload, seed, workdir):
    from tracer import Tracer, layer_metrics

    main, pool = set_up(workload, seed, workdir)
    n = TRACED_CALLS[workload]
    plain, plain_answers = solve_all(main, pool, n)
    tracer = Tracer()
    tracer.install()
    try:
        traced, answers = solve_all(main, Pool(workload, seed, "traced", workdir), n, tracer)
    finally:
        tracer.uninstall()
    # answers are checked only now, so reference computations are not traced
    failed = sum(not check(workload, *a) for a in plain_answers + answers)
    WORK.mkdir(exist_ok=True)
    tracer.dump(WORK / f"spans-{workload}-{seed}.json")
    metrics = layer_metrics(tracer, n)
    out_bytes = sum(len(stdout.encode("utf-8")) for _, _, stdout in answers)
    metrics["cli.output_bytes"] = (out_bytes / n, "bytes")
    metrics["trace.call_ms.p50"] = (statistics.median(traced), "ms")
    metrics["trace.overhead_ms"] = (statistics.median(traced) - statistics.median(plain), "ms")
    return 2 * n, failed, metrics


def main_cli(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="set up once and exit; used to time set-up")
    args = parser.parse_args(argv)

    import_nmr()
    WORK.mkdir(exist_ok=True)
    workdir = WORK / f"work-{os.getpid()}"
    try:
        if args.setup_only:
            set_up(args.workload, args.seed, workdir)
            print(*calibrate())
            return 0
        if args.trace:
            attempted, failed, metrics = run_traced(args.workload, args.seed, workdir)
        else:
            attempted, failed, metrics = run_untraced(args.workload, args.seed,
                                                      args.seconds, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main_cli())
