"""oodkit benchmark: one workload per process, end-to-end or traced.

    python3 perfbench/run.py --workload desk --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; the package is imported from its
`src/`. Every operation goes through `oodkit.cli.cli_main`, in this
process: `train`, `eval` and `gradcheck`. The workload's configs are
generated here and their seeds are drawn from `--seed`.

With `--trace 0` the last line of standard output is a JSON object with
the end-to-end metrics; with `--trace 1` it holds the per-layer metrics
from a traced run. The lines before it give the environment, each eval
report's sha256, and the sample counts and tail percentiles behind the
medians. See README.md for what each metric means.
"""

import os
import sys
import time

PROCESS_START = time.perf_counter()

# One BLAS thread: steadier figures on a small shared machine, and the
# same setting wherever the benchmark runs. Must precede the numpy import.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import spans  # noqa: E402
from workloads import HEADS, SCORE_KINDS, WORKLOADS  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
# Relative to ROOT, the working directory of a run: reports echo their
# output directory, so it must not depend on where the checkout lives.
WORK_ROOT = Path(".perfbench_work")

# Set-up is repeated and its median reported, so that one slow repeat
# does not move setup_s.
SETUP_REPEATS = 8
GRADCHECK_INSTANCES = 100
# gradcheck calls per run, spread evenly over the timed window so that
# a slow stretch of the machine does not land on all of them.
GRADCHECK_REPEATS = 5
# The suite's work (instance sizes, redraws) depends on its seed, so one
# fixed seed keeps gradcheck_s comparable between runs of any --seed.
GRADCHECK_SEED = 0

# The host's speed drifts by tens of percent within minutes, and CPU
# time drifts with wall time, so medians within a run cannot make runs
# agree. A fixed reference computation (Reference), sampled about once a
# second all through the run, drifts the same way. Every operation's time
# is reported at the speed of the machine the baseline was recorded on:
# wall time times the reference's time there (REFERENCE_SECONDS, per part)
# over its median time within REFERENCE_WINDOW_S of the operation, so
# set-up and timed window are each scaled by their own stretch of the run.
# Raw medians are printed above the result line.
REFERENCE_SECONDS = {"python": 0.0048, "small": 0.00993, "large": 0.02046,
                     "stream8": 0.00454, "stream32": 0.00792}
REFERENCE_INTERVAL_S = 1.0
REFERENCE_WINDOW_S = 5.0
# gradcheck works on instances of at most 8 rows: interpreter and small
# matrix work only, which the cache-bound streaming parts do not follow.
REFERENCE_PARTS = {"gradcheck": ("python", "small", "large")}

# name -> unit of every end-to-end metric, in BENCHMARK.json's order.
END_TO_END_UNITS = {
    "setup_s": "s",
    "experiment_s": "s",
    "train_s": "s",
    "train_examples_per_s": "rows/s",
    "eval_s": "s",
    "eval_rows_per_s": "rows/s",
    "gradcheck_s": "s",
    "peak_rss_mb": "MB",
    "success_rate": "ratio",
    "val_accuracy": "ratio",
    "auroc_mean": "ratio",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def import_oodkit():
    """Import the package from this checkout's src/, never from elsewhere."""
    if not (SRC / "oodkit" / "__init__.py").is_file():
        raise SystemExit(f"error: no oodkit package under {SRC}")
    sys.path.insert(0, str(SRC))
    import oodkit.cli
    if Path(oodkit.__file__).resolve().parent != SRC / "oodkit":
        raise SystemExit(f"error: imported oodkit from {oodkit.__file__}, not {SRC}")
    return oodkit


def git_revision() -> str:
    """HEAD of the checkout, read from .git without starting git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def environment(workload: str, seed: int) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "git_revision": git_revision(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
        "nproc": len(os.sched_getaffinity(0)),
        "workload": workload,
        "seed": seed,
    }


def median_and_tail(samples):
    """Median, and the highest whole percentile with at least ten samples
    above it (None when there are fewer than twenty samples)."""
    ordered = sorted(samples)
    n = len(ordered)
    median = statistics.median(ordered)
    if n < 20:
        return median, None
    pct = int(100 * (n - 10) / n)
    return median, (pct, ordered[max(0, -(-pct * n // 100) - 1)])


class Reference:
    """The reference computation: pure Python, small matrix products,
    large GEMMs, and streaming over arrays of 8 MB and 32 MB, bigger than
    a core's L2, the kinds of work the workloads do. Each part drifts on
    its own on a shared host; large evaluations follow the streaming parts,
    which compete with other tenants for cache and memory bandwidth. One
    sample is the geometric mean of the parts' times. It uses no oodkit
    code, so no change to the package moves it."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self.small = rng.standard_normal((64, 64))
        self.rows = rng.standard_normal((500, 256))
        self.square = rng.standard_normal((256, 256))
        self.streams = [np.ones(1 << 20), np.ones(4 << 20)]
        self.bytes = sum(a.nbytes for a in (self.small, self.rows, self.square,
                                            *self.streams))
        self.parts = tuple(REFERENCE_SECONDS)
        # (time, {part: seconds}) of every sample
        self.samples = []
        self.due = 0.0

    def _python(self):
        total = 0
        for i in range(50_000):
            total += (i * i) % 7
        return total

    def _small(self):
        m = self.small
        for _ in range(400):
            z = np.maximum(m @ m + 1.0, 0.0)
            np.all(np.isfinite(z))

    def _large(self):
        for _ in range(12):
            (self.rows @ self.square).sum()
        diff = self.rows[:, None, :64] - self.rows[None, :10, :64]
        np.sqrt(np.einsum("ijk,ijk->ij", diff, diff))

    def _stream8(self):
        for _ in range(8):
            np.add(self.streams[0], 1.0, out=self.streams[0])

    def _stream32(self):
        for _ in range(2):
            np.add(self.streams[1], 1.0, out=self.streams[1])

    def maybe_sample(self):
        """Take one sample if the last one is more than an interval ago."""
        now = time.perf_counter()
        if now < self.due:
            return
        times = {}
        for name in self.parts:
            start = time.perf_counter()
            getattr(self, f"_{name}")()
            times[name] = time.perf_counter() - start
        self.samples.append((now, times))
        self.due = time.perf_counter() + REFERENCE_INTERVAL_S

    @staticmethod
    def value(times: dict, parts) -> float:
        """One sample: the geometric mean of the given parts' times."""
        return statistics.geometric_mean(times[name] for name in parts)

    def around(self, t: float, parts) -> float:
        """Median reference time within REFERENCE_WINDOW_S of t, or of the
        three samples nearest to t when the window holds fewer."""
        near = [times for at, times in self.samples if abs(at - t) <= REFERENCE_WINDOW_S]
        if len(near) < 3:
            near = [times for _, times in
                    sorted(self.samples, key=lambda s: abs(s[0] - t))[:3]]
        return statistics.median(self.value(times, parts) for times in near)

    def scale(self, start: float, seconds: float, parts=None) -> float:
        """A time measured from `start`, expressed at the baseline speed."""
        parts = parts or self.parts
        baseline = self.value(REFERENCE_SECONDS, parts)
        return seconds * baseline / self.around(start + seconds / 2, parts)


class Run:
    """State of one benchmark run: operations, their checks, and timings."""

    def __init__(self, oodkit, workload, seed: int, work: Path):
        self.oodkit = oodkit
        self.workload = workload
        self.rng = random.Random(seed)
        self.work = work
        self.tracer = None
        self.reference = Reference()
        # The first pass, the set-up training and the recheck use this seed;
        # later passes of a workload that trains in its passes draw fresh ones.
        self.setup_seed = self.program_seed()
        self.configs = {}
        self.attempted = 0
        self.failed = 0
        # (command, group, start, seconds) of every operation that succeeded;
        # the group is the set-up or pass it ran in.
        self.ops = []
        self.group = ""
        self.setups = []
        self.digests = {}
        self.reports = []

    def program_seed(self) -> int:
        return self.rng.randrange(1, 2 ** 31)

    def fail(self, what: str, why: str):
        self.failed += 1
        print(f"FAILED {what}: {why}", file=sys.stderr)

    def cli(self, argv, scores_needed=0) -> bool:
        """One operation through the CLI; returns whether it exited 0.
        An exception escaping the CLI counts as a failed operation."""
        self.attempted += 1
        out, err = io.StringIO(), io.StringIO()
        root = (self.tracer.root(f"cli.{argv[0]}", scores_needed=scores_needed)
                if self.tracer is not None else contextlib.nullcontext())
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), root:
                start = time.perf_counter()
                code = self.oodkit.cli.cli_main(argv)
                seconds = time.perf_counter() - start
        except Exception:  # noqa: BLE001 - a crash is a failed operation
            self.fail(" ".join(argv), traceback.format_exc())
            return False
        if code == 0:
            self.ops.append((argv[0], self.group, start, seconds))
        else:
            self.fail(" ".join(argv), f"exit code {code}: {err.getvalue().strip()}")
        self.reference.maybe_sample()
        return code == 0

    def write_configs(self, directory: Path, seed: int) -> dict:
        directory.mkdir(parents=True)
        paths = {}
        for head in HEADS:
            path = directory / f"{head}.json"
            cfg = self.workload.config(head, seed, str(directory))
            path.write_text(json.dumps(cfg, indent=2) + "\n")
            paths[head] = path
        return paths

    def out_dir(self, head: str, seed: int) -> Path:
        """Where every operation on one (head, seed) writes, so that two
        evaluations of one checkpoint echo the same config."""
        return self.work / head / f"seed{seed}"

    def train(self, head: str, seed: int):
        out = self.out_dir(head, seed)
        if (self.cli(["train", "--config", str(self.configs[head]), "--seed", str(seed),
                      "--out-dir", str(out)])
                and not (out / f"checkpoint_seed{seed}.bin").is_file()):
            self.fail(f"train {head} seed {seed}", "no checkpoint written")

    def evaluate(self, head: str, seed: int):
        """Evaluate the checkpoint of one (head, seed) and check its report;
        returns the report, or None when the evaluation failed."""
        out = self.out_dir(head, seed)
        cfg = self.workload.base
        kinds = SCORE_KINDS[head]
        if not self.cli(["eval", "--config", str(self.configs[head]),
                         "--checkpoint", str(out / f"checkpoint_seed{seed}.bin"),
                         "--out-dir", str(out)],
                        scores_needed=(1 + len(cfg["ood"])) * len(kinds)):
            return None
        what = f"eval {head} seed {seed}"
        try:
            raw = (out / f"report_seed{seed}.json").read_bytes()
            report = json.loads(raw)
            self.oodkit.experiment.validate_report(report)
        except (OSError, ValueError) as exc:
            self.fail(what, f"report does not validate: {exc}")
            return None
        digest = hashlib.sha256(raw).hexdigest()
        print(f"report {self.workload.name} {head} seed={seed} sha256={digest}")
        first = self.digests.setdefault((head, seed), digest)
        if first != digest:
            self.fail(what, f"report digest {digest} differs from {first} for the same seed")
        dumps = list(out.glob(f"scores_seed{seed}_*.csv"))
        if len(dumps) != len(cfg["ood"]) * len(kinds):
            self.fail(what, f"{len(dumps)} score dumps written")
        self.check_floors(what, head, report)
        return report

    def check_floors(self, what: str, head: str, report: dict):
        floors = self.workload.floors[head]
        for record in report["per_seed"]:
            if record["accuracy"] < floors["accuracy"]:
                self.fail(what, f"accuracy {record['accuracy']} below {floors['accuracy']}")
            for ood in record["ood_evaluations"]:
                for row in ood["metrics"]:
                    if row["auroc"] < floors[row["score"]]:
                        self.fail(what, f"{ood['ood']} {row['score']} AUROC {row['auroc']} "
                                        f"below {floors[row['score']]}")

    def gradcheck(self):
        self.group = "gradcheck"
        self.cli(["gradcheck", "--instances", str(GRADCHECK_INSTANCES),
                  "--seed", str(GRADCHECK_SEED)])

    # -- phases -----------------------------------------------------------

    def setup(self, index: int):
        """Write the configs and, where the workload asks, train the
        checkpoints its passes evaluate."""
        self.group = f"setup{index}"
        start = time.perf_counter()
        self.configs = self.write_configs(self.work / self.group, self.setup_seed)
        if self.workload.train_in_setup:
            for head in HEADS:
                self.train(head, self.setup_seed)
        self.setups.append((start, time.perf_counter() - start))

    def one_pass(self, index: int, seed: int):
        """The workload's unit of work."""
        for head in HEADS:
            self.group = f"pass{index}"
            if not self.workload.train_in_setup:
                self.train(head, seed)
            report = self.evaluate(head, seed)
            if index == 0 and report is not None:
                self.reports.append(report)

    def timed(self, until: float, first_index: int, gradchecks: int) -> list:
        """Passes until the deadline, with `gradchecks` gradcheck calls
        spread evenly among them; returns the passes' group names. A pass
        that would end after the deadline is not started, but one always
        runs."""
        start = time.perf_counter()
        window = max(until - start, 1e-9)
        groups, index, done, last = [], first_index, 0, 0.0
        while index == first_index or time.perf_counter() + last <= until:
            fresh = index > 0 and not self.workload.train_in_setup
            seed = self.program_seed() if fresh else self.setup_seed
            began = time.perf_counter()
            self.one_pass(index, seed)
            last = time.perf_counter() - began
            groups.append(f"pass{index}")
            index += 1
            while done < min(gradchecks, gradchecks * (time.perf_counter() - start) / window):
                self.gradcheck()
                done += 1
        for _ in range(done, gradchecks):
            self.gradcheck()
        return groups

    def recheck(self):
        """Evaluate the first pass's checkpoints once more: each report must
        be byte-identical to the first one of its seed."""
        self.group = "recheck"
        for head in HEADS:
            self.evaluate(head, self.setup_seed)

    def scaled(self, command: str, groups) -> dict:
        """{group: [calibrated seconds]} of one command's operations."""
        out = {group: [] for group in groups}
        for cmd, group, start, seconds in self.ops:
            if cmd == command and group in out:
                out[group].append(self.reference.scale(start, seconds,
                                                       REFERENCE_PARTS.get(command)))
        return out

    def pass_times(self, groups) -> list:
        """Calibrated operation time of each pass."""
        totals = {group: 0.0 for group in groups}
        for _, group, start, seconds in self.ops:
            if group in totals:
                totals[group] += self.reference.scale(start, seconds)
        return list(totals.values())


def end_to_end(run: Run, import_s: float, pass_groups) -> dict:
    wl = run.workload
    setup_groups = [f"setup{i}" for i in range(SETUP_REPEATS)]
    trains = run.scaled("train", setup_groups if wl.train_in_setup else pass_groups)
    evals = run.scaled("eval", pass_groups)
    gradchecks = [s for group in run.scaled("gradcheck", ["gradcheck"]).values()
                  for s in group]
    rows = [r["accuracy"] for rep in run.reports for r in rep["per_seed"]]
    aurocs = [m["auroc"] for rep in run.reports for r in rep["per_seed"]
              for e in r["ood_evaluations"] for m in e["metrics"]]

    def per_call(by_group):
        # Median over passes (or set-ups) of the mean call in each: every
        # pass calls each head once, so heads of unequal cost weigh alike.
        means = [statistics.fmean(v) for v in by_group.values() if v]
        return statistics.median(means) if means else None

    def rate(units, by_group):
        # Rows per second of each pass (or set-up), then the median.
        rates = [units * len(v) / sum(v) for v in by_group.values() if v]
        return statistics.median(rates) if rates else None

    values = {
        "setup_s": (run.reference.scale(PROCESS_START, import_s)
                    + statistics.median(run.reference.scale(start, seconds)
                                        for start, seconds in run.setups[:SETUP_REPEATS])),
        "experiment_s": statistics.median(run.pass_times(pass_groups)),
        "train_s": per_call(trains),
        "train_examples_per_s": rate(wl.train_rows() * wl.base["sgd"]["epochs"], trains),
        "eval_s": per_call(evals),
        "eval_rows_per_s": rate(wl.eval_rows(), evals),
        "gradcheck_s": statistics.median(gradchecks) if gradchecks else None,
        # The reference's arrays stay resident all run; they are not the program's.
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024
                        - run.reference.bytes) / 2 ** 20,
        "success_rate": 1.0 - run.failed / run.attempted,
        "val_accuracy": statistics.fmean(rows) if rows else None,
        "auroc_mean": statistics.fmean(aurocs) if aurocs else None,
    }
    for command in ("train", "eval", "gradcheck"):
        raw = [seconds for cmd, group, _, seconds in run.ops
               if cmd == command and group != "recheck"]
        if raw:
            mid, tail = median_and_tail(raw)
            extra = f" p{tail[0]}={tail[1]:.6g}" if tail else ""
            print(f"samples {command}: n={len(raw)} raw median={mid:.6g}{extra}")
    print(f"samples passes: n={len(pass_groups)} setups: n={SETUP_REPEATS} "
          f"import: raw {import_s:.6g}")
    samples = [times for _, times in run.reference.samples]
    print(f"reference: n={len(samples)} median="
          f"{statistics.median(Reference.value(t, run.reference.parts) for t in samples):.6g} "
          + " ".join(f"{name}={statistics.median(t[name] for t in samples):.4g}"
                     for name in run.reference.parts))
    print(f"failure_rate {run.failed}/{run.attempted}")
    return {name: value for name, value in values.items() if value is not None}


def main(argv=None) -> int:
    args = parse_args(argv)
    oodkit = import_oodkit()
    import_s = time.perf_counter() - PROCESS_START
    if args.workload not in WORKLOADS:
        raise SystemExit(f"error: unknown workload {args.workload!r}; "
                         f"choose from {sorted(WORKLOADS)}")
    print("env " + json.dumps(environment(args.workload, args.seed), sort_keys=True))

    os.chdir(ROOT)
    work = WORK_ROOT / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        run = Run(oodkit, WORKLOADS[args.workload], args.seed, work)
        run.reference.maybe_sample()
        for i in range(SETUP_REPEATS):
            run.setup(i)

        start = time.perf_counter()
        if args.trace:
            untraced = run.timed(start + args.seconds / 2, 0, 0)
            tracer = spans.Tracer()
            tracer.install()
            run.tracer = tracer
            try:
                run.setup(SETUP_REPEATS)
                traced = run.timed(start + args.seconds, len(untraced), 1)
            finally:
                tracer.uninstall()
                run.tracer = None
        else:
            passes = run.timed(start + args.seconds, 0, GRADCHECK_REPEATS)
        run.recheck()

        if args.trace:
            values = spans.per_layer_metrics(tracer)
            values["trace_overhead"] = (statistics.median(run.pass_times(traced))
                                        / statistics.median(run.pass_times(untraced)) - 1.0)
            units = spans.PER_LAYER_UNITS
            for name in sorted(set(units) - set(values)):
                print(f"absent {name}")
        else:
            values = end_to_end(run, import_s, passes)
            units = END_TO_END_UNITS
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK_ROOT.rmdir()

    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in units.items() if name in values}
    for name, m in metrics.items():
        print(f"metric {name} = {m['value']!r} {m['unit']}")
    print(json.dumps({"correct": run.failed == 0, "attempted": run.attempted,
                      "failed": run.failed, "metrics": metrics}))
    return 0

if __name__ == "__main__":
    sys.exit(main())
