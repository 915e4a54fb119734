"""Benchmark of the aluthge CLI.

    python3 bench/run.py --workload verify_default --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload iterate_chain --seed 1 --trace 1
    python3 bench/run.py --self-test

With ``--trace 0`` it runs whole passes of the workload through the CLI in
child processes for about ``--seconds`` seconds and reports the end-to-end
metrics. With ``--trace 1`` it runs one pass in-process under cProfile and
reports the per-layer metrics and kernel rows instead. Every output is checked
by the oracles in ``oracles.py``; ``failed / attempted`` is the failure
fraction. The last stdout line is the JSON result; the lines before it are a
human-readable summary and the environment block. See README.md.

The program is taken from ``src/`` of the checkout holding this file, with
BLAS pinned to ``nproc`` threads in this process and in every child.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from importlib import metadata
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
NPROC = len(os.sched_getaffinity(0))
BLAS_THREADS = NPROC
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# Pinned before numpy loads, so the oracles here use the same thread count.
os.environ.update(dict.fromkeys(THREAD_VARS, str(BLAS_THREADS)))

import numpy as np  # noqa: E402

import oracles  # noqa: E402
import probe  # noqa: E402

SETUP_REPEATS = 5
MIN_PASSES = 3
IMPORTTIME_REPEATS = 3
# Child entry point: the console script's body, plus a marker once the import
# is done so per-report latencies exclude interpreter start-up.
CLI = "import sys, aluthge.cli as cli; print('#ready', flush=True); sys.exit(cli.main(sys.argv[1:]))"

END_TO_END = ("setup_s", "wall_s", "ops_per_s", "item_s.p50", "item_s.tail", "peak_rss_mb")
PER_LAYER = (
    [f"{layer}.{m}" for layer in probe.LAYERS for m in ("self_s", "calls")]
    + [f"{layer}.{func}.{m}" for layer, func in probe.BOUNDARIES for m in ("calls", "cum_s")]
    + ["matrixio.bytes_written", "checks.vacuous_frac", "proc.cpu_s"]
    + ["import.aluthge_s", "import.scipy_s", "import.numpy_s", "trace.overhead_frac"]
    + [
        "kernel.validate_matrix_n4_us",
        "kernel.trial_rng_us",
        "kernel.aluthge_n4_us",
        "kernel.aluthge_n512_ms",
        "kernel.svd_n512_ms",
        "kernel.svd_n512_gflops",
        "kernel.svd_n512_1t_ms",
        "kernel.svd_n512_1t_gflops",
        "kernel.eigvals_n128_ms",
        "kernel.load_matrix_n512_ms",
        "kernel.save_matrix_n512_ms",
        "kernel.matrix_n512_bytes",
    ]
)
UNIT_SUFFIXES = (
    ("_s", "s"),
    ("_ms", "ms"),
    ("_us", "us"),
    ("_mb", "MiB"),
    ("_per_s", "1/s"),
    (".calls", "count"),
    ("_frac", "fraction"),
    ("_bytes", "B"),
    (".bytes_written", "B"),
    ("_gflops", "GFLOP/s"),
    (".p50", "s"),
    (".tail", "s"),
)


def unit_of(name: str) -> str:
    """Unit of a metric, from its name suffix (longest matching suffix wins)."""
    matches = [(len(s), u) for s, u in UNIT_SUFFIXES if name.endswith(s)]
    return max(matches)[1]


def child_env(threads: int = BLAS_THREADS) -> dict:
    env = {k: v for k, v in os.environ.items() if k != "ALUTHGE_SEED"}
    env.update(dict.fromkeys(THREAD_VARS, str(threads)))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    return env


@contextlib.contextmanager
def scratch(name: str):
    """A fresh directory under ``.bench_work/``; removed on exit, with
    ``.bench_work/`` itself once no other run is using it."""
    work = ROOT / ".bench_work" / f"{name}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        yield work
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()


def digest(*paths: Path) -> str | None:
    h = hashlib.sha256()
    try:
        for p in paths:
            h.update(p.read_bytes())
    except OSError:
        return None
    return h.hexdigest()


@dataclass
class Invocation:
    rc: int
    wall_s: float
    lines: list
    line_gaps_s: list
    rss_mb: float


def invoke(argv: list, cwd: Path) -> Invocation:
    """Run the CLI once in a child; time it, each stdout line, and its peak RSS."""
    t0 = time.perf_counter()
    with open(cwd / "stderr.txt", "wb") as err:
        proc = subprocess.Popen(
            [sys.executable, "-u", "-c", CLI, *argv],
            stdout=subprocess.PIPE,
            stderr=err,
            env=child_env(),
            cwd=cwd,
            text=True,
        )
        lines, stamps = [], []
        try:
            with proc.stdout:
                for line in proc.stdout:
                    stamps.append(time.perf_counter())
                    lines.append(line.rstrip("\n"))
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
        finally:
            if proc.returncode is None:
                proc.kill()
                proc.wait()
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        print(f"child exited with {proc.returncode}: {(cwd / 'stderr.txt').read_text()[-500:]}")
    ready = bool(lines) and lines[0] == "#ready"
    gaps = [b - a for a, b in zip(stamps, stamps[1:])] if ready else []
    return Invocation(proc.returncode, wall, lines[1:] if ready else lines, gaps, usage.ru_maxrss / 1024.0)


class Workload:
    """One benchmark workload: inputs made from the seed, the CLI argv lists of
    one pass, and the oracle over what a pass wrote."""

    name = ""

    def __init__(self, seed: int, work: Path) -> None:
        self.seed = seed
        self.work = work

    def prepare(self) -> None:
        """Make the inputs; not timed."""

    def argvs(self, outdir: Path) -> list:
        raise NotImplementedError

    def check(self, outdir: Path, rcs: list, stdouts: list) -> tuple[int, int]:
        """(attempted, failed) operations of one pass."""
        raise NotImplementedError

    def items(self, invocations: list) -> list:
        """Latencies of the pass's items; by default one per invocation."""
        return [inv.wall_s for inv in invocations]


class VerifyDefault(Workload):
    """All 15 checks at dims 2-6, lambda 0.5; an operation is one check-trial,
    an item one (check, dim) report, timed by when its stdout line arrives."""

    name = "verify_default"

    def __init__(self, seed: int, work: Path, trials: int = 100) -> None:
        super().__init__(seed, work)
        self.trials = trials
        self.sha256 = None
        self.vacuous_frac = 0.0

    def argvs(self, outdir):
        dims = [str(d) for d in oracles.VERIFY_DIMS]
        return [
            ["verify", "--dims", *dims, "--trials", str(self.trials), "--seed", str(self.seed)]
            + ["--lambda", "0.5", "--no-timestamp", "--output-dir", str(outdir)]
        ]

    def check(self, outdir, rcs, stdouts):
        res = oracles.verify_pass(outdir, stdouts[0], rcs[0], self.trials)
        if self.sha256 is None:
            self.sha256 = res["sha256"]
        self.vacuous_frac = res["vacuous"] / res["attempted"]
        # aggregate.json must be byte-identical across passes of one seed.
        failed = res["failed"] if res["sha256"] == self.sha256 else res["attempted"]
        return res["attempted"], failed

    def items(self, invocations):
        return invocations[0].line_gaps_s


class TransformLarge(Workload):
    """``transform --factors`` at lambda 0.5 on Ginibre inputs at n = 128, 256,
    512 and one rank-n/2 input at n = 256; an operation and an item are one matrix."""

    name = "transform_large"
    LAM = 0.5

    def __init__(self, seed, work, shapes=((128, None), (256, None), (512, None), (256, 128))):
        super().__init__(seed, work)
        self.shapes = shapes
        self.inputs = []
        self.verdicts = {}

    def prepare(self):
        rng = np.random.default_rng(self.seed)
        for n, rank in self.shapes:
            path = self.work / f"in_n{n}_rank{rank or n}.json"
            t = probe.ginibre(rng, n, rank)
            oracles.write_matrix(path, t)
            self.inputs.append((path, t))

    def argvs(self, outdir):
        outdir.mkdir(parents=True, exist_ok=True)
        return [
            ["transform", str(p), "--lambda", str(self.LAM), "--output", str(outdir / p.name), "--factors"]
            for p, _ in self.inputs
        ]

    def check(self, outdir, rcs, stdouts):
        failed = 0
        for (path, t), rc in zip(self.inputs, rcs):
            out = outdir / path.name
            # Outputs are deterministic, so a byte-identical repeat reuses the verdict.
            key = (path.name, rc, digest(out, *oracles.factor_paths(out)))
            if key not in self.verdicts:
                self.verdicts[key] = oracles.transform_output(t, out, self.LAM, rc)
            ok, residuals = self.verdicts[key]
            if not ok:
                print(f"oracle: {path.name} failed: {residuals}")
            failed += not ok
        return len(self.inputs), failed


class IterateChain(Workload):
    """``iterate`` at lambda 0.3 on one Ginibre input for a fixed number of
    steps; an operation is one step, an item one invocation."""

    name = "iterate_chain"
    LAM = 0.3

    def __init__(self, seed, work, n=128, steps=100):
        super().__init__(seed, work)
        self.n = n
        self.steps = steps
        self.input = work / f"in_n{n}.json"
        self.radius = 0.0

    def prepare(self):
        t = probe.ginibre(np.random.default_rng(self.seed), self.n)
        oracles.write_matrix(self.input, t)
        self.radius = float(np.abs(np.linalg.eigvals(t)).max())

    def argvs(self, outdir):
        outdir.mkdir(parents=True, exist_ok=True)
        return [
            ["iterate", str(self.input), "--lambda", str(self.LAM), "--max-iter", str(self.steps)]
            + ["--conv-tol", "1e-10", "--output", str(outdir / "trace.csv")]
        ]

    def check(self, outdir, rcs, stdouts):
        try:
            text = (outdir / "trace.csv").read_text()
        except OSError:
            text = ""
        ok, note = oracles.iterate_output(text, self.steps, self.radius, rcs[0])
        if not ok:
            print(f"oracle: iterate failed: {note}")
        return self.steps, 0 if ok else self.steps


WORKLOADS = {w.name: w for w in (VerifyDefault, TransformLarge, IterateChain)}


@dataclass
class Pass:
    wall_s: float
    attempted: int
    failed: int
    items: list
    rss_mb: float


def run_pass(wl: Workload, outdir: Path) -> Pass:
    shutil.rmtree(outdir, ignore_errors=True)
    invocations = [invoke(argv, wl.work) for argv in wl.argvs(outdir)]
    attempted, failed = wl.check(outdir, [i.rc for i in invocations], [i.lines for i in invocations])
    return Pass(
        wall_s=sum(i.wall_s for i in invocations),
        attempted=attempted,
        failed=failed,
        items=wl.items(invocations),
        rss_mb=max(i.rss_mb for i in invocations),
    )


def check_import() -> None:
    """Import aluthge.cli once in a child: writes its bytecode and confirms the
    package comes from ``src/`` of this checkout."""
    found = subprocess.run(
        [sys.executable, "-c", "import aluthge.cli as c; print(c.__file__)"],
        env=child_env(),
        capture_output=True,
        text=True,
    )
    if found.returncode != 0 or not found.stdout.strip().startswith(str(SRC)):
        raise SystemExit(f"error: cannot import aluthge from {SRC}: {found.stderr.strip()[-500:]}")


def import_seconds() -> list:
    """Wall times of fresh interpreters importing aluthge.cli."""
    check_import()
    env = child_env()
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import aluthge.cli"], env=env, check=True)
        times.append(time.perf_counter() - t0)
    return times


def tail(samples: list) -> tuple[str, float]:
    """The highest whole percentile, from p80 to p99, with at least ten samples
    beyond it; with fewer than 50 samples, the maximum."""
    n = len(samples)
    q = min(99, int(100 - 1000 / n)) if n else 0
    if q >= 80:
        return f"p{q}", statistics.quantiles(samples, n=100, method="inclusive")[q - 1]
    return "max", max(samples)


def timed(wl: Workload, seconds: float) -> tuple[dict, int, int]:
    setup = import_seconds()
    passes: list[Pass] = []
    start = time.perf_counter()
    while len(passes) < MIN_PASSES or (
        time.perf_counter() - start + statistics.median(p.wall_s for p in passes) <= seconds
    ):
        passes.append(run_pass(wl, wl.work / "out"))
    # A pass whose children all died before their first report has no items; its wall stands in.
    per_pass = [p.items or [p.wall_s] for p in passes]
    items = [x for p in per_pass for x in p]
    # The tail is taken within each pass and the median taken over passes, so
    # one slow stretch of the host moves it no more than it moves wall_s.
    tails = [tail(p) for p in per_pass]
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    metrics = {
        "setup_s": statistics.median(setup),
        "wall_s": statistics.median(p.wall_s for p in passes),
        "ops_per_s": statistics.median(p.attempted / p.wall_s for p in passes),
        "item_s.p50": statistics.median(items),
        "item_s.tail": statistics.median(t for _, t in tails),
        "peak_rss_mb": max(p.rss_mb for p in passes),
    }
    print(f"{wl.name}: {len(passes)} passes, {attempted} operations, {failed} failed")
    labels = sorted({f"the {label} of {len(p)} items" for (label, _), p in zip(tails, per_pass)})
    print(f"item_s.tail is the median over {len(passes)} passes of each pass's tail: {', '.join(labels)}")
    print(f"pass walls (s): {[round(p.wall_s, 3) for p in passes]}")
    print(f"setup imports (s): {[round(s, 3) for s in setup]}")
    return metrics, attempted, failed


def parse_importtime(text: str) -> dict:
    """Self time (s) of ``-X importtime`` rows, each charged to its nearest
    enclosing import (itself included) among numpy, scipy and aluthge."""
    rows = []
    for line in text.splitlines():
        parts = line.split("|")
        if not line.startswith("import time:") or len(parts) != 3 or "self [us]" in parts[0]:
            continue
        name = parts[2][1:]
        depth = (len(name) - len(name.lstrip(" "))) // 2
        rows.append((depth, name.strip(), int(parts[0].split(":")[1])))
    groups = {"numpy": 0.0, "scipy": 0.0, "aluthge": 0.0}
    stack: list = []
    # Rows are printed children first; reversed, each row follows its parent.
    for depth, name, self_us in reversed(rows):
        while stack and stack[-1][0] >= depth:
            stack.pop()
        root = name.split(".")[0]
        owner = root if root in groups else (stack[-1][1] if stack else None)
        stack.append((depth, owner))
        if owner is not None:
            groups[owner] += self_us / 1e6
    return groups


def run_probe(mode: str, spec: dict, threads: int) -> dict:
    spec_path = Path(spec["scratch"]) / f"probe_{mode}.json"
    spec = {**spec, "result": str(spec_path.with_suffix(".result.json"))}
    spec_path.write_text(json.dumps(spec))
    subprocess.run(
        [sys.executable, str(BENCH / "probe.py"), mode, str(spec_path)], env=child_env(threads), check=True
    )
    return json.loads(Path(spec["result"]).read_text())


def traced(wl: Workload) -> tuple[dict, int, int]:
    check_import()
    dirs = {k: wl.work / k for k in ("untraced", "traced")}
    spec = {k: wl.argvs(d) for k, d in dirs.items()}
    spec.update(seed=wl.seed, scratch=str(wl.work))
    result = run_probe("trace", spec, BLAS_THREADS)
    single = run_probe("svd", spec, 1)
    attempted = failed = 0
    for k, d in dirs.items():
        a, f = wl.check(d, result[k]["rcs"], [result[k]["stdout"]] * len(result[k]["rcs"]))
        attempted, failed = attempted + a, failed + f
    imports = []
    for _ in range(IMPORTTIME_REPEATS):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import aluthge.cli"],
            env=child_env(),
            capture_output=True,
            text=True,
            check=True,
        )
        imports.append(parse_importtime(proc.stderr))
    metrics = dict(result["metrics"])
    metrics.update({f"import.{k}_s": statistics.median(i[k] for i in imports) for k in imports[0]})
    metrics["matrixio.bytes_written"] = sum(p.stat().st_size for p in dirs["traced"].rglob("*") if p.is_file())
    metrics["checks.vacuous_frac"] = getattr(wl, "vacuous_frac", 0.0)
    metrics["kernel.svd_n512_1t_ms"] = 1e3 * single["svd_s"]
    metrics["kernel.svd_n512_1t_gflops"] = probe.SVD_FLOPS_PER_N3 * probe.SVD_N**3 / (single["svd_s"] * 1e9)
    print(f"{wl.name}: traced pass {result['traced_s']:.3f} s, untraced {result['untraced_s']:.3f} s")
    return metrics, attempted, failed


def git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment() -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": metadata.version("scipy"),
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "nproc": NPROC,
        "blas_threads": BLAS_THREADS,
        "commit": git_commit(),
    }


def self_test() -> int:
    """Run small passes, corrupt their outputs, and require the oracles to count
    each corruption as failed; also check the metric names against BENCHMARK.json."""
    cases = []

    def expect(label, wl, outdir, rcs, stdouts, want_failed):
        _, failed = wl.check(outdir, rcs, stdouts)
        ok = (failed > 0) == want_failed
        cases.append(ok)
        print(f"{'ok  ' if ok else 'FAIL'} {wl.name}: {label}: failed={failed}")

    with scratch("self-test") as work:
        check_import()
        vf = VerifyDefault(3, work, trials=2)
        out = work / "verify"
        inv = invoke(vf.argvs(out)[0], work)
        rcs, lines = [inv.rc], [inv.lines]
        expect("clean output", vf, out, rcs, lines, False)
        expect("FAIL line on stdout", vf, out, rcs, [[lines[0][0].replace("PASS", "FAIL")] + lines[0][1:]], True)
        (out / "spectrum_invariance_dim4.json").unlink()
        expect("dropped report file", vf, out, rcs, lines, True)
        invoke(vf.argvs(out)[0], work)
        agg = out / "aggregate.json"
        agg.write_text(agg.read_text().replace('"failures":0', '"failures": 0', 1))
        expect("aggregate not byte-identical", vf, out, rcs, lines, True)

        tr = TransformLarge(3, work, shapes=((12, None), (12, 6)))
        tr.prepare()
        out = work / "transform"
        run_pass(tr, out)
        rcs = [0] * len(tr.inputs)
        expect("clean output", tr, out, rcs, [[]] * len(rcs), False)
        delta_path = out / tr.inputs[1][0].name
        delta = oracles.read_matrix(delta_path)
        delta[0, 0] += 1e-6 * np.linalg.norm(delta)
        oracles.write_matrix(delta_path, delta)
        expect("perturbed Delta", tr, out, rcs, [[]] * len(rcs), True)
        run_pass(tr, out)
        _, mod_path = oracles.factor_paths(out / tr.inputs[0][0].name)
        mod = oracles.read_matrix(mod_path)
        oracles.write_matrix(mod_path, mod + 1e-6 * np.linalg.norm(mod) * np.triu(np.ones_like(mod), 1))
        expect("non-Hermitian modulus", tr, out, rcs, [[]] * len(rcs), True)

        it = IterateChain(3, work, n=8, steps=6)
        it.prepare()
        out = work / "iterate"
        run_pass(it, out)
        csv_path = out / "trace.csv"
        clean = csv_path.read_text()
        expect("clean output", it, out, [0], [[]], False)
        rows = clean.split("\n")

        def with_field(row, col, value):
            fields = rows[row].split(",")
            fields[col] = value
            return "\n".join(rows[:row] + [",".join(fields)] + rows[row + 1 :])

        corruptions = {
            "dropped row": "\n".join(rows[:3] + rows[4:]),
            "spectral drift": with_field(2, 3, "0.5"),
            "non-finite value": with_field(3, 1, "nan"),
            "missing footer": clean.replace("# converged=false\n", ""),
        }
        for label, text in corruptions.items():
            csv_path.write_text(text)
            expect(label, it, out, [0], [[]], True)
        expect("nonzero exit code", it, out, [2], [[]], True)

    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    for key, names in (("end_to_end", END_TO_END), ("per_layer", PER_LAYER)):
        got = [(m["name"], m["unit"]) for m in declared[key]]
        want = [(n, unit_of(n)) for n in names]
        cases.append(got == want)
        print(f"{'ok  ' if got == want else 'FAIL'} BENCHMARK.json {key} names and units match run.py")
    print(f"self-test: {cases.count(True)}/{len(cases)} cases as expected")
    return 0 if all(cases) else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true", help="check that the oracles catch corrupted outputs")
    args = parser.parse_args()
    if not (SRC / "aluthge" / "cli.py").is_file():
        print(f"error: no aluthge sources under {SRC}", file=sys.stderr)
        return 2
    if args.self_test:
        return self_test()
    if args.workload is None:
        parser.error("--workload is required")
    with scratch(args.workload) as work:
        wl = WORKLOADS[args.workload](args.seed, work)
        wl.prepare()
        if args.trace:
            metrics, attempted, failed = traced(wl)
        else:
            metrics, attempted, failed = timed(wl, args.seconds)
    if isinstance(wl, VerifyDefault):
        print(f"aggregate.json sha256={wl.sha256}")
    print(f"fail_frac = {failed}/{attempted} = {failed / attempted:.6g}")
    for name, value in metrics.items():
        print(f"{name:40s} {value:>16.6g} {unit_of(name)}")
    print("env " + json.dumps(environment(), sort_keys=True))
    names = PER_LAYER if args.trace else END_TO_END
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": metrics[n], "unit": unit_of(n)} for n in names},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
