#!/usr/bin/env python3
"""dctkit benchmark: one workload, one seed, one timed run.

    python3 perfbench/run.py --workload family-p2 --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; dctkit is imported from ``src/``
and the ``dct`` commands run as ``python3 -m dctkit.cli``.  Workloads:

  cli-flagship   sequential dct processes on generated copies of the
                 flagship KA_3/rad^2 and of KA_2 (one client, closed loop)
  family-p2      in-process tasks on KA_n/rad^2, n = 3..6, over F_2
  family-fields  the same tasks over F_3, F_5 and F_7

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs the same
inputs untraced and traced, checks the answers agree, and prints the
per-layer metrics.  The end-to-end times are scaled to a reference host
speed by a probe timed after every task (``hostspeed``), because the
shared host's speed drifts.  Every answer is checked against a closed
form; a wrong answer exits 1 without a result line.  The last line of
stdout is one JSON object: {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
sys.path.insert(0, str(HERE))

import hostspeed  # noqa: E402
import kafamily as ka  # noqa: E402
import ranking  # noqa: E402
import tasks  # noqa: E402
import tracing  # noqa: E402

WORKLOADS = {
    # tail_q: the tail percentile, chosen so that a 30 s run leaves at least
    # ten answered samples beyond it.
    "cli-flagship": {"fields": None, "tail_q": 0.80},
    "family-p2": {"fields": (2,), "tail_q": 0.95},
    "family-fields": {"fields": (3, 5, 7), "tail_q": 0.95},
}
FAMILY_SIZES = (3, 4, 5, 6)
SETUP_SAMPLES = 7  # fresh interpreters timed for setup_s
SETUP_PROBES = 9  # host-speed probes after each of them
PROBE_SAMPLES = 5  # fresh interpreters per start-up probe in the traced run
CHILD_TIMEOUT_S = 60

END_TO_END = (
    ("tasks_per_s", "1/s", "higher"),
    ("task_p50_s", "s", "lower"),
    ("task_tail_s", "s", "lower"),
    ("answered_ratio", "ratio", "higher"),
    ("peak_rss_mb", "MB", "lower"),
    ("setup_s", "s", "lower"),
)

PER_LAYER_UNITS = {
    "calls": "count", "matrix_new": "count", "morphism_new": "count",
    "cap_exceeded": "count", "repeat_ratio": "ratio", "overhead_ratio": "ratio",
    "cells_p50": "cells", "cells_max": "cells",
}


class MissingSource(RuntimeError):
    """The checkout holds no dctkit sources to benchmark."""


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def import_dctkit():
    """Import dctkit from this checkout's ``src/`` and nowhere else."""
    if not (SRC / "dctkit" / "__init__.py").is_file():
        raise MissingSource(f"no dctkit sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import dctkit
    import dctkit.cli  # noqa: F401  (the CLI layer is traced and timed too)

    if Path(dctkit.__file__).resolve().parent != (SRC / "dctkit").resolve():
        raise MissingSource(f"dctkit was imported from {dctkit.__file__}, not {SRC}")
    return dctkit


# -- inputs -------------------------------------------------------------------


class FamilyInputs:
    """Passes of (kind, document) tasks; every document in a run is distinct."""

    def __init__(self, seed: int, fields):
        self.docs = ka.DistinctDocuments(seed)
        self.order = random.Random(seed + 1)
        self.points = [(n, p) for p in fields for n in FAMILY_SIZES]

    def next_pass(self):
        batch = [(k, self.docs.draw(n, p)) for n, p in self.points for k in tasks.KINDS]
        self.order.shuffle(batch)
        return batch


class CliInputs:
    """Generated KA_3/rad^2 and KA_2 workspace files and the command list."""

    def __init__(self, seed: int):
        docs = ka.DistinctDocuments(seed)
        work = OUT / f"work-seed{seed}"
        work.mkdir(parents=True, exist_ok=True)
        self.commands = []
        for stem, n in tasks.CLI_SIZES.items():
            inst = docs.draw(n, 2)
            path = work / f"{stem}.json"
            path.write_text(inst.text + "\n", encoding="utf-8")
            dot = str(work / f"{stem}.dot")
            for argv, check in tasks.cli_commands(n, dot):
                self.commands.append((argv[:1] + ["--workspace", str(path)] + argv[1:], check, inst, dot))
        random.Random(seed + 1).shuffle(self.commands)

    def next_pass(self):
        return self.commands


def make_inputs(workload: str, seed: int):
    fields = WORKLOADS[workload]["fields"]
    return CliInputs(seed) if fields is None else FamilyInputs(seed, fields)


def setup(workload: str, seed: int):
    """Import dctkit and generate the first pass of inputs; return the time."""
    t0 = time.perf_counter()
    dctkit = import_dctkit()
    inputs = make_inputs(workload, seed)
    first = inputs.next_pass()
    return dctkit, inputs, first, time.perf_counter() - t0


def setup_at_reference_speed(workload: str, seed: int) -> float:
    """One fresh set-up, scaled by the host slow-down probed right after it."""
    *_, seconds = setup(workload, seed)
    return seconds / hostspeed.slowdown([hostspeed.probe() for _ in range(SETUP_PROBES)])


def run_child(argv, timeout=CHILD_TIMEOUT_S):
    """Run a child to completion.

    Returns (seconds, exit code, stdout text, peak RSS in MB, stderr bytes).
    """
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        argv, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE
    )
    timer = threading.Timer(timeout, proc.kill)
    timer.start()
    try:
        out = proc.stdout.read()
        err = proc.stderr.read()
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
        proc.stdout.close()
        proc.stderr.close()
    elapsed = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode < 0:
        raise RuntimeError(f"{argv[1:4]} was killed: {err.decode(errors='replace')[-400:]}")
    return elapsed, proc.returncode, out.decode(), usage.ru_maxrss / 1024.0, err


def median_of_fresh_setups(workload: str, seed: int) -> float:
    samples = []
    for _ in range(SETUP_SAMPLES):
        _, code, out, _, err = run_child(
            [sys.executable, str(HERE / "run.py"), "--probe", "setup",
             "--workload", workload, "--seed", str(seed)]
        )
        if code != 0:
            raise RuntimeError(f"setup probe failed: {err.decode(errors='replace')[-400:]}")
        samples.append(json.loads(out.strip().splitlines()[-1])["setup_s"])
    return statistics.median(samples)


# -- timed loops --------------------------------------------------------------


class Tally:
    """Every attempt in run order: wall time, outcome, and a host-speed probe."""

    def __init__(self):
        self.seconds = []
        self.answered = []
        self.probes = []
        self.peak_child_rss = 0.0

    @property
    def attempted(self):
        return len(self.seconds)

    @property
    def refused(self):
        return self.answered.count(False)

    @property
    def wall(self):
        return sum(self.seconds)

    def add(self, seconds, answered):
        self.seconds.append(seconds)
        self.answered.append(answered)
        self.probes.append(hostspeed.probe())

    def at_reference_speed(self):
        """Each attempt's time divided by the host slow-down around it."""
        factors = hostspeed.local_slowdowns(self.probes)
        return [s / f for s, f in zip(self.seconds, factors)], statistics.median(factors)


def in_process_task(dctkit, kind, inst):
    """Run and check one task; return (seconds, answer or None when refused)."""
    t0 = time.perf_counter()
    try:
        answer = tasks.run_task(dctkit, kind, inst)
    except dctkit.CapExceeded:
        return time.perf_counter() - t0, None
    seconds = time.perf_counter() - t0
    tasks.check_task(kind, inst, answer)
    return seconds, answer


def check_cli_output(code, out, check, inst, dot) -> bool:
    """Check one dct result against its closed form; False when refused."""
    try:
        doc = json.loads(out)
    except json.JSONDecodeError:
        raise tasks.WrongAnswer(f"dct exited {code} without a JSON document") from None
    answered = tasks.classify_cli(code, doc) == "answered"
    if answered:
        check(doc, inst, dot)
    return answered


def cli_task(argv, check, inst, dot):
    seconds, code, out, rss, _ = run_child([sys.executable, "-m", "dctkit.cli"] + argv)
    return seconds, check_cli_output(code, out, check, inst, dot), rss


def timed_passes(seconds, first, inputs, run_pass):
    """Run whole passes, stopping at the pass boundary nearest to ``seconds``."""
    t_begin = time.perf_counter()
    batch, passes = first, 0
    while True:
        run_pass(batch)
        passes += 1
        elapsed = time.perf_counter() - t_begin
        if elapsed + elapsed / passes / 2 > seconds:
            return passes
        batch = inputs.next_pass()


def warm_up(dctkit, inputs):
    """One untimed task of each kind at n = 3, so lazy first-call costs are paid."""
    if isinstance(inputs, FamilyInputs):
        p = inputs.points[0][1]
        for kind in tasks.KINDS:
            in_process_task(dctkit, kind, inputs.docs.draw(3, p))


def measure(workload, seconds, dctkit, inputs, first):
    tally = Tally()
    if WORKLOADS[workload]["fields"] is None:
        def run_pass(batch):
            for argv, check, inst, dot in batch:
                dt, answered, rss = cli_task(argv, check, inst, dot)
                tally.add(dt, answered)
                tally.peak_child_rss = max(tally.peak_child_rss, rss)
    else:
        def run_pass(batch):
            for kind, inst in batch:
                dt, answer = in_process_task(dctkit, kind, inst)
                tally.add(dt, answer is not None)
    passes = timed_passes(seconds, first, inputs, run_pass)
    return tally, passes


def end_to_end(workload, tally, setup_s):
    """The end-to-end metrics; every time is at the probe's reference speed."""
    q = WORKLOADS[workload]["tail_q"]
    scaled, slowdown = tally.at_reference_speed()
    latencies = [t for t, ok in zip(scaled, tally.answered) if ok]
    wall = sum(scaled)
    s = ranking.summarize(latencies, tally.refused, q, wall)
    if WORKLOADS[workload]["fields"] is None:
        rss = tally.peak_child_rss
    else:
        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    values = {
        "tasks_per_s": len(latencies) / wall,
        "task_p50_s": s["p50"],
        "task_tail_s": s["tail"],
        "answered_ratio": len(latencies) / tally.attempted,
        "peak_rss_mb": rss,
        "setup_s": setup_s,
    }
    notes = {
        "tasks_per_s": f"{len(latencies) / tally.wall:.4g} as timed, at a median "
                       f"host slow-down of {slowdown:.3f}",
        "task_tail_s": f"p{round(q * 100)} of {len(latencies)} answered tasks, "
                       f"{s['tail_beyond']} beyond",
        "task_p50_s": "lands on a refused task: timed wall reported" if s["p50_refused"] else "",
        "answered_ratio": f"{tally.refused} of {tally.attempted} refused "
                          f"(fail_ratio {tally.refused / tally.attempted:.4f})",
    }
    units = {name: (unit, better) for name, unit, better in END_TO_END}
    return values, units, notes


# -- traced run ---------------------------------------------------------------


def startup_probes():
    """Fresh-interpreter costs that every dct command pays before computing."""
    py = sys.executable
    interp, numpy_import, dctkit_import = [], [], []
    for _ in range(PROBE_SAMPLES):
        interp.append(run_child([py, "-c", "pass"])[0])
        out = run_child([py, "-c", "import time; t = time.perf_counter(); import numpy; "
                                   "print(time.perf_counter() - t)"])[2]
        numpy_import.append(float(out))
        dctkit_import.append(run_child([py, "-c", "import dctkit"])[0])
    return {
        "cli.interp_s": statistics.median(interp),
        "cli.numpy_import_s": statistics.median(numpy_import),
        "cli.import_s": statistics.median(dctkit_import),
    }


def cli_in_process(dctkit, argv):
    """``cli.main(argv)`` with stdout captured: (seconds, exit code, stdout)."""
    buf = io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(buf):
        code = dctkit.cli.main(argv)
    return time.perf_counter() - t0, code, buf.getvalue()


def traced(workload, seconds, dctkit, inputs, first, seed):
    tracer = tracing.Tracer()
    summaries, walls = [], {"plain": 0.0, "traced": 0.0}
    cli_main = []
    is_cli = WORKLOADS[workload]["fields"] is None
    attempted = 0

    def run_batch(batch, trace_on):
        answers = []
        for item in batch:
            if trace_on:
                tracer.begin_task()
            if is_cli:
                argv, check, inst, dot = item
                dt, code, out = cli_in_process(dctkit, argv)
                check_cli_output(code, out, check, inst, dot)
                answers.append((code, out))
                if not trace_on:
                    cli_main.append(dt)
            else:
                dt, answer = in_process_task(dctkit, *item)
                answers.append(answer)
            walls["traced" if trace_on else "plain"] += dt
        return answers

    def run_pass(batch):
        nonlocal attempted
        plain = run_batch(batch, False)
        with tracer.patched(dctkit):
            with_trace = run_batch(batch, True)
        if plain != with_trace:
            raise tasks.WrongAnswer("the traced run's answers differ from the untraced run's")
        attempted += len(batch)
        if not summaries:
            OUT.mkdir(parents=True, exist_ok=True)
            tracing.write_spans(spans_path(workload), tracer)
        summaries.append(tracer.take_pass())

    timed_passes(seconds, first, inputs, run_pass)
    metrics = tracing.layer_metrics(summaries)
    if not is_cli:
        for argv, check, inst, dot in CliInputs(seed).next_pass():
            dt, code, out = cli_in_process(dctkit, argv)
            check_cli_output(code, out, check, inst, dot)
            cli_main.append(dt)
    metrics.update(startup_probes())
    metrics["cli.main_s"] = statistics.median(cli_main)
    metrics["trace.overhead_ratio"] = walls["traced"] / walls["plain"]
    return metrics, attempted


def spans_path(workload):
    return OUT / f"spans-{workload}.npz"


def per_layer_unit(name):
    return PER_LAYER_UNITS.get(name.rsplit(".", 1)[-1], "s")


# -- reporting ----------------------------------------------------------------


def environment():
    import numpy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpu": cpu,
    }


def report(workload, seed, seconds, trace, metrics, units, notes, attempted, extra):
    print(f"dctkit benchmark  workload={workload}  seed={seed}  seconds={seconds}  trace={trace}")
    for key, value in environment().items():
        print(f"  {key}: {value}")
    for key, value in extra.items():
        print(f"  {key}: {value}")
    print(f"  {'metric':<38} {'value':>14}  {'unit':<6} better")
    for name, value in metrics.items():
        unit, better = units[name]
        note = notes.get(name, "")
        print(f"  {name:<38} {value:>14.6g}  {unit:<6} {better:<6} {note}".rstrip())
    result = {
        "correct": True,
        "attempted": attempted,
        "failed": 0,
        "metrics": {name: {"value": value, "unit": units[name][0]} for name, value in metrics.items()},
    }
    print(json.dumps(result))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", choices=("setup",), help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    try:
        if args.probe == "setup":
            print(json.dumps({"setup_s": setup_at_reference_speed(args.workload, args.seed)}))
            return 0
        dctkit, inputs, first, _ = setup(args.workload, args.seed)
        warm_up(dctkit, inputs)
        if args.trace:
            metrics, attempted = traced(args.workload, args.seconds, dctkit, inputs, first, args.seed)
            units = {name: (per_layer_unit(name), "lower") for name in metrics}
            report(args.workload, args.seed, args.seconds, 1, metrics, units, {}, attempted,
                   {"spans (first traced pass)": str(spans_path(args.workload))})
            return 0
        setup_s = median_of_fresh_setups(args.workload, args.seed)
        tally, passes = measure(args.workload, args.seconds, dctkit, inputs, first)
        values, units, notes = end_to_end(args.workload, tally, setup_s)
        report(args.workload, args.seed, args.seconds, 0, values, units, notes, tally.attempted,
               {"passes": passes, "timed_wall_s": tally.wall,
                "loop": "closed, one client, single-threaded"})
        return 0
    except MissingSource as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    except tasks.WrongAnswer as exc:
        print(f"perfbench: wrong answer: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
