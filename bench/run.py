"""Benchmark of the ``dcovselect`` command-line tool.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
``src/``.  One benchmark run:

1. generates the workload's input from ``--seed`` (``synth_generate`` +
   ``emit``) at least ``SETUP_REPEATS`` times and for at least
   ``SETUP_MIN_S`` seconds, and reports the median as ``setup_s``;
2. makes one discarded warm-up invocation, whose outputs pass the
   correctness gate (``check.py``) and become the byte-for-byte reference
   for every later invocation of this run;
3. with ``--trace 0``: invokes the CLI again, one fresh process at a time
   (closed loop), as long as the next one should end within ``--seconds``
   and at least ``MIN_SAMPLES`` times, and reports medians of wall time,
   CPU time and peak RSS of those processes;
   with ``--trace 1``: makes one untraced invocation and one traced one
   (``tracer.py``) and reports the per-layer metrics.

Inputs and outputs live in a temporary directory under ``.bench_work/`` in
the checkout, removed at exit.  BLAS threads are pinned to
``BLAS_THREADS`` (at most ``nproc``) in this process and its children.
Human-readable lines come first; the last line of standard output is the
JSON result.  Without ``src/dcovselect`` the benchmark exits with code 2 and
prints no result.

``--tiny`` shrinks every workload for the harness's own test;
``--record A:B`` writes reference digests for seeds A..B-1 instead of
measuring.
"""

import os

BLAS_THREADS = 1
BLAS_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_ENV:
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import threading  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

SETUP_REPEATS = 3
SETUP_MIN_S = 1.0
MIN_SAMPLES = 2
RUN_BUDGET_S = 170.0  # one benchmark run must end within 180 s
MAX_REPORTED = 20

sys.path.insert(0, str(BENCH))
import check  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

CHILD_ENV = dict(os.environ, PYTHONPATH=str(SRC))


@dataclass
class Sample:
    wall_s: float
    cpu_s: float
    rss_mb: float
    code: int


def import_program():
    """Import ``dcovselect`` from this checkout's ``src/`` or exit with 2."""
    if not (SRC / "dcovselect" / "cli.py").is_file():
        print(f"no program to benchmark: {SRC / 'dcovselect'} is missing", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(SRC))
    import dcovselect

    if SRC.resolve() not in Path(dcovselect.__file__).resolve().parents:
        print(f"dcovselect imported from {dcovselect.__file__}, not from {SRC}", file=sys.stderr)
        raise SystemExit(2)


def environment():
    import numpy
    import scipy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        commit = out.stdout.strip() or commit
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {var: os.environ[var] for var in BLAS_ENV},
        "commit": commit,
    }


def run_child(args, log_path, deadline):
    """Run one process to completion; wall, CPU and peak RSS come from wait4.

    A timer kills the process if it is still running at ``deadline``.
    """
    with open(log_path, "wb") as log:
        start = time.perf_counter()
        proc = subprocess.Popen(args, stdout=log, stderr=subprocess.STDOUT, env=CHILD_ENV, cwd=ROOT)
        killer = threading.Timer(max(0.0, deadline - start), proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Sample(wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0, proc.returncode)


class Runner:
    """Invokes one workload's CLI command and judges each invocation.

    The first invocation passes the full correctness gate; every later one
    must reproduce its output files byte for byte.
    """

    def __init__(self, workload, seed, work, deadline, use_reference=True):
        self.workload = workload
        self.use_reference = use_reference
        self.seed = seed
        self.work = work
        self.deadline = deadline
        self.data = work / "data.csv"
        self.ds = None
        self.baseline = None
        self.baseline_ok = False
        self.reference = "not checked"
        self.attempted = 0
        self.failed = 0
        self.failures = []

    def setup(self):
        times = []
        while len(times) < SETUP_REPEATS or sum(times) < SETUP_MIN_S:
            start = time.perf_counter()
            self.ds = workloads.generate(self.workload, self.seed, self.data)
            times.append(time.perf_counter() - start)
        return times

    def invoke(self, tag, traced=False):
        """One CLI process; returns ``(sample, out_dir)``, recording failures."""
        out = self.work / f"out_{tag}"
        argv = self.workload.cli_argv(self.data, out, self.seed)
        if traced:
            prefix = [sys.executable, str(BENCH / "tracer.py"), str(self.work / "spans.json")]
        else:
            prefix = [sys.executable, "-m", "dcovselect.cli"]
        log = self.work / f"log_{tag}.txt"
        sample = run_child(prefix + argv, log, self.deadline)
        self.attempted += 1
        if sample.code != 0:
            tail = log.read_text(errors="replace").strip().splitlines()[-3:]
            problems = [f"{tag}: exit code {sample.code}: {' | '.join(tail)}"]
        elif self.baseline is None:
            problems = self.gate(out)
            self.baseline = check.file_hashes(out)
            self.baseline_ok = not problems
        elif check.file_hashes(out) != self.baseline:
            problems = [f"{tag}: outputs are not byte-identical to the warm-up run's"]
        elif not self.baseline_ok:
            problems = [f"{tag}: same outputs as the warm-up run, which failed the gate"]
        else:
            problems = []
        self.failures.extend(problems)
        self.failed += bool(problems)
        return sample, out

    def gate(self, out):
        command = self.workload.command[0]
        problems = check.oracle_failures(command, out, self.ds)
        if not self.use_reference:
            self.reference = "not used for --tiny inputs; oracle and invariants only"
            return problems
        try:
            expected = check.load_reference(self.workload, self.seed)
        except ValueError as exc:
            return problems + [str(exc)]
        if expected is None:
            self.reference = "none recorded for this seed; oracle and invariants only"
            return problems
        self.reference = "recorded"
        return problems + check.reference_failures(check.digest(command, out), expected)


def measure(workload, opts, work):
    deadline = time.perf_counter() + RUN_BUDGET_S
    runner = Runner(workload, opts.seed, work, deadline, use_reference=not opts.tiny)
    setup_times = runner.setup()
    warm, warm_out = runner.invoke("warmup")
    shutil.rmtree(warm_out, ignore_errors=True)

    lines = [
        f"workload {workload.name}, seed {opts.seed}: {' '.join(workload.command)} "
        f"on {workload.synth['n']} x {workload.synth['p']}",
        f"setup_s: median of {len(setup_times)} = {statistics.median(setup_times):.4f} s",
    ]
    if opts.trace:
        plain, plain_out = runner.invoke("untraced")
        shutil.rmtree(plain_out, ignore_errors=True)
        traced, traced_out = runner.invoke("traced", traced=True)
        spans_path = work / "spans.json"
        spans = json.loads(spans_path.read_text()) if spans_path.exists() else []
        metrics = tracer.layer_metrics(spans, check.file_sizes(traced_out), traced.wall_s, plain.wall_s)
        lines.append(f"traced run {traced.wall_s:.3f} s vs untraced {plain.wall_s:.3f} s")
        lines += [f"  {name} = {m['value']:.6g} {m['unit']}" for name, m in metrics.items()]
    else:
        samples = []
        end = time.perf_counter() + opts.seconds
        # start another invocation only if it should end within --seconds
        while len(samples) < MIN_SAMPLES or time.perf_counter() + samples[-1].wall_s <= end:
            sample, out = runner.invoke(f"run{len(samples)}")
            shutil.rmtree(out, ignore_errors=True)
            samples.append(sample)
            if time.perf_counter() > deadline:
                break
        metrics = {
            "run_s": {"value": statistics.median(s.wall_s for s in samples), "unit": "s"},
            "cpu_s": {"value": statistics.median(s.cpu_s for s in samples), "unit": "s"},
            "peak_rss_mb": {"value": statistics.median(s.rss_mb for s in samples), "unit": "MB"},
            "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
        }
        lines.append(f"{len(samples)} timed invocations after 1 warm-up ({warm.wall_s:.3f} s)")
        for name in ("run_s", "cpu_s", "peak_rss_mb"):
            key = {"run_s": "wall_s", "cpu_s": "cpu_s", "peak_rss_mb": "rss_mb"}[name]
            values = [getattr(s, key) for s in samples]
            lines.append(
                f"  {name} = {metrics[name]['value']:.4f} {metrics[name]['unit']} "
                f"(median of {len(values)}; min {min(values):.4f}, max {max(values):.4f})"
            )
        lines.append(f"  setup_s = {metrics['setup_s']['value']:.4f} s (median of {len(setup_times)})")
    fail_share = runner.failed / runner.attempted
    outputs_match = int(runner.failed == 0)
    lines.append(f"  fail_share = {fail_share:.4f} ratio ({runner.failed} of {runner.attempted} invocations)")
    lines.append(f"  outputs_match = {outputs_match} bool (reference: {runner.reference})")
    lines += [f"  FAILED CHECK: {msg}" for msg in runner.failures[:MAX_REPORTED]]
    if len(runner.failures) > MAX_REPORTED:
        lines.append(f"  ... {len(runner.failures) - MAX_REPORTED} more failed checks")
    result = {
        "correct": outputs_match == 1,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": metrics,
    }
    return lines, result


def record(workload, seeds, work):
    """Run each seed once, gate it on the oracle, and store its digest."""
    path = check.REFERENCE_DIR / f"{workload.name}.json"
    stored = {"spec": workload.spec(), "seeds": {}}
    if path.exists():
        stored = json.loads(path.read_text())
        if stored["spec"] != json.loads(json.dumps(workload.spec())):
            raise SystemExit(f"{path} holds another workload definition; remove it to re-record")
    data = work / "data.csv"
    command = workload.command[0]
    for seed in seeds:
        ds = workloads.generate(workload, seed, data)
        out = work / f"rec_{seed}"
        argv = [sys.executable, "-m", "dcovselect.cli"] + workload.cli_argv(data, out, seed)
        sample = run_child(argv, work / "log.txt", time.perf_counter() + 600.0)
        problems = check.oracle_failures(command, out, ds) if sample.code == 0 else ["exit code"]
        if problems:
            raise SystemExit(f"seed {seed}: {problems}")
        stored["seeds"][str(seed)] = check.digest(command, out)
        shutil.rmtree(out)
        print(f"recorded {workload.name} seed {seed} ({sample.wall_s:.2f} s)", flush=True)
    stored["seeds"] = dict(sorted(stored["seeds"].items(), key=lambda kv: int(kv[0])))
    check.REFERENCE_DIR.mkdir(exist_ok=True)
    path.write_text(json.dumps(stored, indent=1, sort_keys=True) + "\n")


def parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.FULL))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="shrunken inputs for the harness test")
    parser.add_argument("--record", default=None, metavar="A:B", help="record references for seeds A..B-1")
    return parser.parse_args(argv)


def main(argv=None):
    # turn SIGTERM into an exception so a running child is killed and reaped
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    opts = parse(argv)
    import_program()
    workload = workloads.get(opts.workload, tiny=opts.tiny)
    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{workload.name}_", dir=WORK))
    try:
        if opts.record:
            first, last = (int(v) for v in opts.record.split(":"))
            record(workload, range(first, last), work)
            return 0
        print("environment: " + json.dumps(environment(), sort_keys=True))
        lines, result = measure(workload, opts, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass
    print("\n".join(lines))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
