"""kellybt benchmark: drives the real CLI as a closed loop over one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Run it from the root of a checkout. One CLI subprocess runs at a time and
the next starts only when it has exited. A run makes its inputs from the
seed, measures `import kellybt.cli` several times (set-up), then repeats
passes of the workload's commands for about `--seconds` seconds, checking
every command's outputs. The fixed task of reference.py runs before every
command and after the last, and each command's wall time is divided by the
mean of the two reference times around it: the pass time in `ref` units
moves with the program, not with the speed of a shared machine. With
`--trace 1` it ends with four in-process passes through `kellybt.cli.main`,
plain, traced, traced, plain, the traced ones with the layer wrappers of
layers.py installed, and reports per-layer metrics instead of end-to-end
ones.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`. The full record (every
sample, input and output digests, the environment) goes to
perfbench/out/results/. See perfbench/README.md.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib.metadata
import io
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
import traceback

from layers import TARGETS, Tracer
from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

SETUP_SAMPLES = 5
MAX_PASSES = 200
COMMAND_TIMEOUT_S = 150.0
GOLDEN_SEED = 0
REFERENCE = os.path.join(HERE, "reference.py")
# Artifacts left out of the pinned digests: a planned run-accounting change
# adds counters to the manifest and per-bet columns to trades.csv.
UNPINNED = ("trades.csv", "manifest.json")


def _rel(path: str) -> str:
    return os.path.relpath(path, ROOT)


def sha256_file(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def _output_files(outdir: str) -> list[str]:
    return sorted(f for f in os.listdir(outdir) if os.path.isfile(os.path.join(outdir, f)))


def spawn(argv: list[str], log_path: str) -> tuple[float, int, float, float]:
    """Run one child to completion: (wall seconds, exit code, peak RSS MB,
    CPU seconds).

    The peak RSS is the child's own, from wait4; RUSAGE_CHILDREN would give
    the maximum over every child this process ever had."""
    env = dict(os.environ, PYTHONPATH=SRC)
    with open(log_path, "w") as log:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdin=subprocess.DEVNULL,
                                stdout=log, stderr=subprocess.STDOUT)
        timer = threading.Timer(COMMAND_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:  # interrupted: leave no child behind
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, proc.returncode, usage.ru_maxrss / 1024.0, usage.ru_utime + usage.ru_stime


class Run:
    """One benchmark run: samples, per-command outcomes and digests."""

    def __init__(self, workload, golden: dict | None):
        self.wl = workload
        self.golden = golden
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.first_digests: dict[str, dict[str, str]] = {}
        self.workdir = os.path.join(OUT, workload.name)
        self.passdir = os.path.join(self.workdir, "pass")
        self.reference_output: str | None = None

    def reference(self) -> float:
        """Wall time of one run of the fixed reference task. It is not the
        program under test, so a failure stops the run instead of counting
        as a failed command."""
        log = os.path.join(self.workdir, "reference.log")
        argv = [sys.executable, REFERENCE, os.path.join(self.workdir, "reference.csv")]
        wall, rc, _, _ = spawn(argv, log)
        with open(log) as fh:
            output = fh.read()
        if self.reference_output is None:
            self.reference_output = output
        if rc != 0 or output != self.reference_output:
            raise SystemExit(f"reference task failed or changed its output:\n{output}")
        return wall

    def _judge(self, label: str, command: str, outdir: str, rc: int, error: str) -> dict:
        """Check one command's outputs; returns its digests and size."""
        self.attempted += 1
        problems = [f"exit code {rc}: {error.strip()[-400:]}"] if rc != 0 else []
        digests: dict[str, str] = {}
        size = 0
        if rc == 0:
            try:
                problems += self.wl.check(command, outdir)
            except Exception:  # a malformed output is a wrong output
                problems.append("output check raised: " + traceback.format_exc(limit=2))
            for f in _output_files(outdir):
                digests[f] = sha256_file(os.path.join(outdir, f))
                size += os.path.getsize(os.path.join(outdir, f))
            first = self.first_digests.setdefault(command, digests)
            if digests != first:
                problems.append("outputs differ from the first pass of this run")
            pinned = (self.golden or {}).get(command)
            if pinned is not None:
                got = {f: d for f, d in digests.items() if f not in UNPINNED}
                if got != pinned:
                    bad = sorted(f for f in set(got) | set(pinned) if got.get(f) != pinned.get(f))
                    problems.append(f"digest mismatch against golden.json: {bad}")
        if problems:
            self.failed += 1
            self.problems += [f"{label} {command}: {p}" for p in problems]
        return {"digests": digests, "bytes": size}

    def subprocess_pass(self, index: int) -> dict:
        shutil.rmtree(self.passdir, ignore_errors=True)
        os.makedirs(self.passdir)
        record = {"wall_s": 0.0, "cpu_s": 0.0, "ref": 0.0, "reference_s": [self.reference()],
                  "commands": {}}
        for command in self.wl.commands:
            outdir = os.path.join(self.passdir, command)
            log = outdir + ".log"
            argv = [sys.executable, "-m", "kellybt.cli"] + self.wl.argv(command, _rel(outdir))
            wall, rc, rss, cpu = spawn(argv, log)
            with open(log) as fh:
                error = fh.read()
            outcome = self._judge(f"pass {index}", command, outdir, rc, error)
            refs = record["reference_s"]
            refs.append(self.reference())
            ref = wall / ((refs[-2] + refs[-1]) / 2)
            record["commands"][command] = {"wall_s": wall, "cpu_s": cpu, "ref": ref, "exit": rc,
                                           "peak_rss_mb": rss, **outcome}
            record["wall_s"] += wall
            record["cpu_s"] += cpu
            record["ref"] += ref
        return record

    def inprocess_pass(self, label: str, tracer: Tracer | None = None) -> dict:
        from kellybt import cli

        shutil.rmtree(self.passdir, ignore_errors=True)
        os.makedirs(self.passdir)
        record = {"wall_s": 0.0, "commands": {}}
        if tracer is not None:
            tracer.install()
        try:
            for command in self.wl.commands:
                outdir = os.path.join(self.passdir, command)
                captured = io.StringIO()
                with contextlib.redirect_stdout(captured), contextlib.redirect_stderr(captured):
                    t0 = time.perf_counter()
                    try:
                        rc = cli.main(self.wl.argv(command, _rel(outdir)))
                    except Exception:
                        rc = -1
                        traceback.print_exc()
                    wall = time.perf_counter() - t0
                outcome = self._judge(label, command, outdir, rc, captured.getvalue())
                record["commands"][command] = {"wall_s": wall, "exit": rc, **outcome}
                record["wall_s"] += wall
        finally:
            if tracer is not None:
                tracer.uninstall()
        return record


def measure_setup(run: Run, samples: int, warm_up: bool) -> list[float]:
    """Wall times of a fresh `import kellybt.cli`; the warm-up import is not
    measured and writes the bytecode cache."""
    argv = [sys.executable, "-c", "import kellybt.cli"]
    log = os.path.join(run.workdir, "setup.log")
    walls = []
    for _ in range(samples + warm_up):
        wall, rc, _, _ = spawn(argv, log)
        if rc != 0:
            with open(log) as fh:
                raise SystemExit(f"import kellybt.cli failed:\n{fh.read()}")
        walls.append(wall)
    return walls[warm_up:]


def _environment() -> dict:
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        res = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=30)
        commit = res.stdout.strip() or None
    src = hashlib.sha256()
    pkg = os.path.join(SRC, "kellybt")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            src.update(name.encode() + b"\0")
            with open(os.path.join(pkg, name), "rb") as fh:
                src.update(fh.read())
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": importlib.metadata.version("numpy"), "git_commit": commit,
            "source_sha256": src.hexdigest(), "loadavg_at_start": list(os.getloadavg())}


def _median(values):
    return statistics.median(values) if values else 0.0


def _trimmed_mean(values):
    """Mean after dropping the lowest and the highest fifth."""
    values = sorted(values)
    k = len(values) // 5
    return statistics.mean(values[k:len(values) - k])


def _benchmark_json() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def benchmark(args) -> int:
    wl_seed = args.seed % 2**32
    wl = WORKLOADS[args.workload](wl_seed)
    golden = None
    if args.seed == GOLDEN_SEED:
        with open(os.path.join(HERE, "golden.json")) as fh:
            golden = json.load(fh)["digests"].get(wl.name)
    run = Run(wl, golden)
    env = _environment()
    shutil.rmtree(run.workdir, ignore_errors=True)
    indir = os.path.join(run.workdir, "inputs")
    os.makedirs(indir)

    t_inputs = time.perf_counter()
    gen = [sys.executable, os.path.join(HERE, "workloads.py"), wl.name, str(wl_seed), indir]
    _, rc, _, _ = spawn(gen, os.path.join(run.workdir, "inputs.log"))
    if rc != 0:
        raise SystemExit(f"input generation failed, see {_rel(run.workdir)}/inputs.log")
    inputs = [{"name": _rel(p), "sha256": sha256_file(p), "bytes": os.path.getsize(p)}
              for p in wl.load(indir)]
    input_s = time.perf_counter() - t_inputs
    # Set-up is sampled at the start and again after every pass, so that its
    # median spans the whole run and not one moment of a shared machine.
    setup = measure_setup(run, SETUP_SAMPLES, warm_up=True)

    # Start another pass while it is expected to end no later than half a
    # pass after --seconds; a traced run also keeps room for its four
    # in-process passes.
    reserve = 4.0 if args.trace else 0.5
    passes, loop = [], []
    t0 = time.perf_counter()
    while len(passes) < MAX_PASSES:
        t_pass = time.perf_counter()
        passes.append(run.subprocess_pass(len(passes)))
        setup += measure_setup(run, 1, warm_up=False)
        loop.append(time.perf_counter() - t_pass)
        if time.perf_counter() - t0 + reserve * _median(loop) > args.seconds:
            break

    walls = [p["wall_s"] for p in passes]
    rels = [p["ref"] for p in passes]
    per_command = {c: [p["commands"][c]["wall_s"] for p in passes] for c in wl.commands}
    peak_rss = max(c["peak_rss_mb"] for p in passes for c in p["commands"].values())
    metrics = {
        "pass_ref": _trimmed_mean(rels),
        "bars_per_ref": wl.bars / _trimmed_mean(rels),
        "setup_s": _median(setup),
        "peak_rss_mb": peak_rss,
    }
    record = {"workload": wl.name, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": env, "inputs": inputs,
              "argv": {c: wl.argv(c, _rel(os.path.join(run.passdir, c)))
                       for c in wl.commands},
              "input_generation_s": input_s, "setup_samples_s": setup, "passes": passes}

    if args.trace:
        sys.path.insert(0, SRC)
        import kellybt.cli  # noqa: F401  (imported before timing)
        if not os.path.abspath(kellybt.cli.__file__).startswith(SRC + os.sep):
            raise SystemExit(f"kellybt was imported from {kellybt.cli.__file__}, not {SRC}")
        # Plain, traced, traced, plain: the order cancels a linear drift in
        # machine speed out of the overhead ratio. Layer metrics are the mean
        # of the two traced passes.
        tracers = [Tracer(), Tracer()]
        plain = [run.inprocess_pass("in-process")]
        traced = [run.inprocess_pass("traced", t) for t in tracers]
        plain.append(run.inprocess_pass("in-process"))
        first, second = (t.metrics() for t in tracers)
        layer = {k: (v + second[k]) / 2 for k, v in first.items()}
        traced_s = sum(p["wall_s"] for p in traced) / 2
        layer_sum = sum(sum(t.layer_self_s().values()) for t in tracers) / 2
        layer.update({
            f"cli.{c}_s": _median(per_command.get(c, []))
            for c in ("ingest", "features", "label", "report", "backtest", "compare",
                      "simulate")
        })
        layer["artifacts.bytes_written"] = sum(c["bytes"]
                                               for c in traced[0]["commands"].values())
        layer["trace.pass_s"] = traced_s
        layer["trace.remainder_s"] = traced_s - layer_sum
        layer["trace.overhead_ratio"] = 2 * traced_s / sum(p["wall_s"] for p in plain)
        metrics = layer
        record.update({"in_process_passes": plain, "traced_passes": traced,
                       "span_self_s": [dict(t.self_s) for t in tracers],
                       "span_calls": [dict(t.calls) for t in tracers]})

    spec = _benchmark_json()["per_layer" if args.trace else "end_to_end"]
    missing = [m["name"] for m in spec if m["name"] not in metrics]
    if missing:
        raise SystemExit(f"metrics not computed: {missing}")
    record["metrics"] = metrics
    record["failed_ratio"] = run.failed / run.attempted
    record["problems"] = run.problems
    resdir = os.path.join(OUT, "results")
    os.makedirs(resdir, exist_ok=True)
    respath = os.path.join(resdir, f"{wl.name}-seed{args.seed}-trace{args.trace}.json")
    with open(respath, "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)

    for problem in run.problems:
        print("WRONG OUTPUT:", problem, file=sys.stderr)
    print(f"workload {wl.name}  seed {args.seed}  trace {args.trace}  "
          f"inputs {', '.join(i['sha256'][:12] for i in inputs) or 'argv only'}")
    if args.trace:
        for m in spec:
            print(f"  {m['name']:<28} {metrics[m['name']]:>14.6g} {m['unit']}")
        print(f"  per-layer self times sum to {layer_sum:.4f} s of the traced pass's "
              f"{traced_s:.4f} s (mean of 2 traced passes)")
    else:
        refs = [r for p in passes for r in p["reference_s"]]
        print(f"  pass_ref     {metrics['pass_ref']:.4f} ref      trimmed mean of {len(rels)} passes "
              f"(min {min(rels):.4f}, max {max(rels):.4f})")
        print(f"  bars_per_ref {metrics['bars_per_ref']:.1f} bars/ref "
              f"{wl.bars} bars per pass over pass_ref")
        print(f"  (wall time: median pass {_median(walls):.4f} s, "
              f"{wl.bars / _median(walls):.1f} bars/s; median reference task "
              f"{_median(refs):.4f} s of {len(refs)})")
        print(f"  setup_s      {metrics['setup_s']:.4f} s        median of {len(setup)} imports")
        print(f"  peak_rss_mb  {metrics['peak_rss_mb']:.1f} MB      "
              f"max over {sum(len(p['commands']) for p in passes)} commands")
    print(f"  failed_ratio {run.failed}/{run.attempted} commands    record: {_rel(respath)}")
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in spec},
    }))
    return 0


def self_test() -> int:
    """Trace a small pass of every workload and check trace coverage."""
    sys.path.insert(0, SRC)
    failures = []
    seen: set[str] = set()
    for cls in WORKLOADS.values():
        wl = cls(GOLDEN_SEED, small=True)
        run = Run(wl, None)
        shutil.rmtree(run.workdir, ignore_errors=True)
        indir = os.path.join(run.workdir, "inputs")
        os.makedirs(indir)
        wl.prepare(indir)
        wl.load(indir)
        tracer = Tracer()
        traced = run.inprocess_pass("traced", tracer)
        failures += run.problems
        seen |= {k for k, n in tracer.calls.items() if n}
        failures += [f"{wl.name}: span {k} recorded no call"
                     for k in wl.spans if not tracer.calls.get(k)]
        m = tracer.metrics()
        if wl.name != "research_pipeline":
            failures += [f"{wl.name}: {k} = {m[k]}, expected 0"
                         for k in ("candles.parse_rows", "indicators.calls", "labeling.labels")
                         if m[k]]
        remainder = traced["wall_s"] - sum(tracer.layer_self_s().values())
        if not 0 <= remainder < 0.01 * traced["wall_s"]:
            failures.append(f"{wl.name}: self times leave {remainder:.4f} s unexplained")
        print(f"{wl.name}: {len(wl.spans)} spans checked, traced pass {traced['wall_s']:.3f} s")
    failures += [f"span {key} recorded no call on any workload"
                 for key, *_ in TARGETS if key not in seen]
    for f in failures:
        print("FAIL:", f)
    print("self-test", "FAILED" if failures else "passed")
    return 1 if failures else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=GOLDEN_SEED)
    parser.add_argument("--seconds", type=float,
                        help="measuring time (default: run_seconds in BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args(argv)
    # A terminated run unwinds through spawn(), which stops its child.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not os.path.isfile(os.path.join(SRC, "kellybt", "cli.py")):
        print(f"no kellybt sources at {_rel(SRC)}/kellybt; run from a full checkout",
              file=sys.stderr)
        return 2
    if args.self_test:
        return self_test()
    if args.workload is None:
        parser.error("--workload is required")
    if args.seconds is None:
        args.seconds = _benchmark_json()["run_seconds"]
    return benchmark(args)


if __name__ == "__main__":
    sys.exit(main())
