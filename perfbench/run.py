"""towercert benchmark: CLI workloads in a closed loop, checked outputs.

Run from the repository root (the package is used from ./src, uninstalled):

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --trace 1
    python3 perfbench/run.py --workload all --smoke --seconds 1

One client runs the workload's commands one after another, each as a fresh
process with `--jobs 1`, until the next whole pass would end after
--seconds.  Afterwards every output is checked against perfbench/reference.json.

--trace 0 reports the end-to-end metrics.  --trace 1 alternates untraced
passes with passes run through traced_cli.py, which records a span around
every layer, and reports the per-layer metrics plus the tracing overhead.
The last line of stdout is one JSON object: correct, attempted, failed,
metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import workloads
from workloads import REGISTRY, Checker, Command, command_set, strip_timestamps

HERE = Path(__file__).resolve().parent
TRACED_CLI = HERE / "traced_cli.py"

SETUP_PROBES = 9
# Every child is killed once the run reaches this age, so a hung program
# still ends the run in time.
HARD_LIMIT_S = 170.0

# The machine's speed drifts by up to 2x in stretches of seconds (other
# tenants share the cores), which moved 30 s run medians by 20% or more
# between seeds.  So a fixed loop is timed in this process before and after
# every command, and end-to-end times are scaled to the speed at which that
# loop takes CAL_REF_S, the fastest seen on the 2-core 2.1 GHz Xeon this
# benchmark was written on.  The loop mixes random reads of a table beyond
# the L2 cache with float log/sin, like the L-sum, because an
# arithmetic-only loop tracked the slowdowns only half as well.  It does
# not touch towercert, so no change to the program can move the scale; raw
# seconds are printed beside the scaled ones.
CAL_REF_S = 0.030
CAL_TABLE_SIZE = 1 << 20
CAL_STEPS = 60_000


class Calibrator:
    """Times the fixed calibration loop; call it for one sample in seconds."""

    def __init__(self):
        self._table = list(range(CAL_TABLE_SIZE))

    def __call__(self) -> float:
        table, mask = self._table, CAL_TABLE_SIZE - 1
        log, sin = math.log, math.sin
        j, acc = 1, 0.0
        t0 = time.perf_counter()
        for _ in range(CAL_STEPS):
            j = (j * 1103515245 + 12345) & mask
            acc += log(2.0 * sin(table[j] * 1e-6 + 0.1))
        return time.perf_counter() - t0


PROBE = (
    "import time, towercert, towercert.cli as cli\n"
    "cli.build_parser()\n"
    "print(time.perf_counter(), towercert.__file__)\n"
)


@dataclass
class Op:
    command: Command
    traced: bool
    wall_s: float
    cpu_s: float
    maxrss_kb: int
    exit_code: int
    output: bytes
    registry_lines: int
    stderr: bytes
    summary: dict | None
    # raw seconds times scale = seconds at the reference speed
    scale: float = 1.0


@dataclass
class Pass:
    traced: bool
    wall_s: float
    ops: list[Op]


class Spawner:
    """Client of spawner.py, the small process every command is forked from.

    Each reply carries the child's own rusage from wait4; RUSAGE_CHILDREN
    would carry the largest RSS of every child reaped so far.
    """

    def __init__(self, root: Path, env: dict):
        self._proc = subprocess.Popen(
            [sys.executable, "-S", str(HERE / "spawner.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, cwd=root, env=env, text=True,
        )

    def run(self, argv: list[str], stdout: Path, stderr: Path, timeout: float) -> dict:
        request = {"argv": argv, "stdout": str(stdout), "stderr": str(stderr), "timeout": timeout}
        self._proc.stdin.write(json.dumps(request) + "\n")
        self._proc.stdin.flush()
        reply = self._proc.stdout.readline()
        if not reply:
            raise RuntimeError("spawner.py exited")
        return json.loads(reply)

    def close(self) -> None:
        self._proc.stdin.close()
        try:
            self._proc.wait(timeout=5)
        except subprocess.TimeoutExpired:
            self._proc.terminate()  # it kills and reaps its running command
            self._proc.wait()
        self._proc.stdout.close()


class Runner:
    def __init__(self, run_dir: Path, spawner: Spawner):
        self.run_dir = run_dir
        self.spawner = spawner
        self.started = time.perf_counter()
        self.registry = run_dir / "registry.jsonl"
        self.calibrate = Calibrator()

    def _spawn(self, argv: list[str], stdout_path: Path) -> tuple[dict, bytes]:
        """Run argv to completion: the spawner's reply and the child's stderr."""
        stderr_path = self.run_dir / "stderr"
        left = HARD_LIMIT_S - (time.perf_counter() - self.started)
        reply = self.spawner.run(argv, stdout_path, stderr_path, max(left, 1.0))
        return reply, stderr_path.read_bytes()

    def setup_probe(self) -> tuple[float, str]:
        """Seconds from spawn until the CLI could dispatch, and the package path."""
        out = self.run_dir / "probe"
        reply, err = self._spawn([sys.executable, "-c", PROBE], out)
        if reply["exit"] != 0:
            raise RuntimeError(f"towercert does not import: {err.decode(errors='replace')}")
        ready, path = out.read_text().split(maxsplit=1)
        return float(ready) - reply["t0"], str(Path(path.strip()).resolve())

    def run_op(self, command: Command, traced: bool) -> Op:
        argv = [a.replace(REGISTRY, str(self.registry)) for a in command.argv]
        summary_path = self.run_dir / "summary.json"
        if traced:
            full = [sys.executable, str(TRACED_CLI), str(summary_path), *argv]
        else:
            full = [sys.executable, "-m", "towercert.cli", *argv]
        stdout_path = self.run_dir / "stdout"
        reply, err = self._spawn(full, stdout_path)
        output = stdout_path.read_bytes()
        writes_registry = REGISTRY in command.argv and command.kind == "search"
        if writes_registry and self.registry.exists():
            output = self.registry.read_bytes()
        registry_lines = 0
        if command.kind == "certify_eigenform" and self.registry.exists():
            lines = self.registry.read_bytes().splitlines()
            registry_lines = sum(1 for line in lines if line.strip())
        summary = None
        if traced and summary_path.exists():
            summary = json.loads(summary_path.read_text())
            summary_path.unlink()
        return Op(
            command, traced, reply["wall"], reply["utime"] + reply["stime"],
            reply["maxrss_kb"], reply["exit"], output, registry_lines, err, summary,
        )

    def loop(self, commands: list[Command], seconds: float, trace: bool):
        """Whole passes until the next one would end after `seconds`.

        The calibration loop runs between commands to set each one's scale.
        Without tracing, a set-up probe runs before every command, so that
        set-up time is sampled across the whole run, not in one burst.  With
        tracing, untraced and traced passes alternate so that drift on a
        shared machine affects both alike.  Returns the passes and the
        scaled set-up samples.
        """
        modes = (False, True) if trace else (False,)
        passes: list[Pass] = []
        setup: list[float] = []
        cycles: list[float] = []
        t0 = time.perf_counter()
        last_cal = self.calibrate()
        while True:
            cycle_start = time.perf_counter()
            for traced in modes:
                ops = []
                for command in commands:
                    probe = None if trace else self.setup_probe()[0]
                    op = self.run_op(command, traced)
                    cal = self.calibrate()
                    op.scale = CAL_REF_S / ((last_cal + cal) / 2)
                    last_cal = cal
                    if probe is not None:
                        setup.append(probe * op.scale)
                    ops.append(op)
                passes.append(Pass(traced, sum(op.wall_s for op in ops), ops))
            now = time.perf_counter()
            cycles.append(now - cycle_start)
            cycle = statistics.median(cycles)
            if now - t0 + cycle > seconds or now - self.started + cycle > HARD_LIMIT_S:
                break
        while not trace and len(setup) < SETUP_PROBES:
            probe = self.setup_probe()[0]
            cal = self.calibrate()
            setup.append(probe * CAL_REF_S / ((last_cal + cal) / 2))
            last_cal = cal
        return passes, setup


def tail(values: list[float]) -> tuple[float, str]:
    """Highest of p99.9/p99/p90 with at least ten samples beyond it.

    Below 100 samples none has; then p90 is interpolated between samples,
    which is steadier than the maximum of a dozen.
    """
    ordered = sorted(values)
    n = len(ordered)
    for p in (0.999, 0.99, 0.9):
        if n * (1 - p) >= 10:
            return ordered[int(p * n) - 1], f"p{p * 100:g}"
    if n == 1:
        return ordered[0], "the only sample"
    p90 = statistics.quantiles(ordered, n=10, method="inclusive")[-1]
    return p90, "p90 interpolated (fewer than ten samples beyond it)"


def check_ops(checker: Checker, passes: list[Pass]) -> dict[int, workloads.Outcome]:
    """Outcome per op (by id); identical outputs are checked once."""
    cache: dict[tuple, workloads.Outcome] = {}
    outcomes = {}
    untraced_output: dict[Command, bytes] = {}
    for p in passes:
        for op in p.ops:
            normalized = strip_timestamps(op.output)
            key = (op.command, op.exit_code, op.registry_lines, hashlib.sha256(normalized).digest())
            if key not in cache:
                cache[key] = checker.check(op.command, op.exit_code, op.output, op.registry_lines)
            outcome = cache[key]
            if not op.traced:
                untraced_output.setdefault(op.command, normalized)
            elif untraced_output.get(op.command, normalized) != normalized:
                outcome = workloads.Outcome(
                    ok=False, errors=["traced records differ from untraced records"]
                )
            outcomes[id(op)] = outcome
    return outcomes


def end_to_end(passes, outcomes, setup: list[float]) -> tuple[dict, list[str]]:
    ops = [op for p in passes for op in p.ops]
    latencies = [op.wall_s * op.scale for op in ops]
    items = sum(outcomes[id(op)].items for op in ops)
    tail_value, tail_label = tail(latencies)
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "wall_s": (
            statistics.fmean(sum(op.wall_s * op.scale for op in p.ops) for p in passes), "s"
        ),
        "cpu_s": (
            statistics.fmean(sum(op.cpu_s * op.scale for op in p.ops) for p in passes), "s"
        ),
        "peak_rss_mb": (max(op.maxrss_kb for op in ops) / 1024.0, "MB"),
        "items_per_s": (items / sum(latencies), "1/s"),
        "op_latency_p50_s": (statistics.median(latencies), "s"),
        "op_latency_tail_s": (tail_value, "s"),
    }
    scales = [op.scale for op in ops]
    raw = [op.wall_s for op in ops]
    notes = [
        f"times are scaled to the reference speed (calibration loop {CAL_REF_S} s); "
        f"scale per command: median {statistics.median(scales):.3f}, "
        f"range {min(scales):.3f}-{max(scales):.3f}",
        f"raw seconds: wall per pass {statistics.fmean(p.wall_s for p in passes):.4f}, "
        f"op p50 {statistics.median(raw):.4f}, op max {max(raw):.4f}",
        f"setup_s: median of {len(setup)} fresh processes, one before each command "
        "(interpreter start, import towercert.cli, build_parser)",
        f"wall_s, cpu_s: mean over {len(passes)} passes (a mean moves less than a median "
        "when the machine switches between a fast and a slow speed); cpu is user+sys "
        "of the children",
        f"op latency: {len(latencies)} commands; tail is {tail_label}",
    ]
    return metrics, notes


def _layer_totals(p: Pass, outcomes) -> dict:
    spans: dict[str, dict] = {}
    counters: dict[str, int] = {}
    for op in p.ops:
        summary = op.summary or {"spans": {}, "counters": {}}
        for name, entry in summary["spans"].items():
            total = spans.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
            for key in total:
                total[key] += entry[key]
        for name, value in summary["counters"].items():
            counters[name] = counters.get(name, 0) + value
    outs = [outcomes[id(op)] for op in p.ops]
    return {
        "spans": spans,
        "counters": counters,
        "gaps": [g for o in outs for g in o.gaps],
        "elements_closed": sum(o.elements_closed for o in outs),
    }


def layer_metrics(totals: dict) -> dict:
    spans, counters = totals["spans"], totals["counters"]

    def s(name):
        return spans.get(name, {}).get("s", 0.0)

    def self_s(name):
        return spans.get(name, {}).get("self_s", 0.0)

    def calls(name):
        return spans.get(name, {}).get("calls", 0)

    l_sum_calls = calls("cubic.l_sum")
    sl2 = s("elliptic.sl2_perfect")
    return {
        "cubic.self_s": (sum(e["self_s"] for n, e in spans.items() if n.startswith("cubic.")), "s"),
        "cubic.cubic_character.s": (s("cubic.cubic_character"), "s"),
        "cubic.primitive_root.s": (s("cubic.primitive_root"), "s"),
        "cubic.l_sum.self_s": (self_s("cubic.l_sum"), "s"),
        "cubic.l_sum.calls": (l_sum_calls, "count"),
        "cubic.l_sum.compensated_calls": (
            counters.get("cubic.l_sum.compensated_calls", 0), "count"
        ),
        "cubic.retry_ratio": (
            counters.get("cubic.class_numbers_decided", 0) / l_sum_calls if l_sum_calls else 0.0,
            "ratio",
        ),
        "cubic.integrality_gap_max": (max(totals["gaps"], default=0.0), "1"),
        "cubic.regulator.s": (s("cubic.regulator"), "s"),
        "tower.certify_cyclotomic.self_s": (self_s("tower.certify_cyclotomic"), "s"),
        "records.record_for.s": (s("records.record_for"), "s"),
        "records.to_json_line.s": (s("records.to_json_line"), "s"),
        "records.parse_record.s": (s("records.parse_record"), "s"),
        "records.count": (calls("records.to_json_line") + calls("records.parse_record"), "count"),
        "records.bytes": (counters.get("records.bytes", 0), "bytes"),
        "elliptic.sl2_perfect.s": (sl2, "s"),
        "elliptic.elements_closed": (totals["elements_closed"], "count"),
        "elliptic.elements_per_s": (totals["elements_closed"] / sl2 if sl2 else 0.0, "1/s"),
        "elliptic.furuta_n.s": (s("elliptic.furuta_n"), "s"),
        "arith.is_prime.calls": (calls("arith.is_prime"), "count"),
        "arith.is_prime.s": (s("arith.is_prime"), "s"),
        "arith.primes_up_to.s": (s("arith.primes_up_to"), "s"),
        "hlsearch.search_shanks_candidates.s": (s("hlsearch.search_shanks_candidates"), "s"),
        "hlsearch.empirical_prime_count.s": (s("hlsearch.empirical_prime_count"), "s"),
        "hlsearch.hl_constant.self_s": (self_s("hlsearch.hl_constant"), "s"),
        "modforms.certify_eigenform.s": (s("modforms.certify_eigenform"), "s"),
        "cli.self_s": (self_s("cli.main"), "s"),
    }


def per_layer(passes, outcomes) -> tuple[dict, list[str]]:
    traced = [p for p in passes if p.traced]
    untraced = [p for p in passes if not p.traced]
    per_pass = [layer_metrics(_layer_totals(p, outcomes)) for p in traced]
    metrics = {
        name: (statistics.median(m[name][0] for m in per_pass), unit)
        for name, (_, unit) in per_pass[0].items()
    }
    def scaled_wall(group):
        return statistics.median(sum(op.wall_s * op.scale for op in p.ops) for p in group)

    traced_wall, untraced_wall = scaled_wall(traced), scaled_wall(untraced)
    metrics["trace.wall_s"] = (traced_wall, "s")
    metrics["trace.overhead_s"] = (traced_wall - untraced_wall, "s")
    raw_wall = statistics.median(p.wall_s for p in traced)
    missing = sorted(
        {name for p in traced for op in p.ops for name in (op.summary or {}).get("missing", [])}
    )
    cubic_share = metrics["cubic.self_s"][0] / raw_wall
    sl2_share = metrics["elliptic.sl2_perfect.s"][0] / raw_wall
    notes = [
        f"per-layer values: median over {len(traced)} traced passes "
        f"(untraced passes: {len(untraced)}); s = inclusive span time, self_s = minus "
        "child spans; span times are raw seconds",
        f"trace.overhead_s = traced wall_s {traced_wall:.4f} - untraced wall_s "
        f"{untraced_wall:.4f}, both scaled like the end-to-end times",
        f"share of raw traced wall ({raw_wall:.4f} s): cubic.* self {cubic_share:.1%}, "
        f"elliptic.sl2_perfect {sl2_share:.1%}",
        "names this tree lacks, so not traced: " + (", ".join(missing) or "none"),
    ]
    return metrics, notes


def tree_identity(root: Path, package_file: str) -> list[str]:
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(str(path.relative_to(root)).encode() + b"\0" + path.read_bytes())
    commit = "none (not a git checkout)"
    if (root / ".git").exists():
        result = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True
        )
        commit = result.stdout.strip() or commit
    cpus = len(os.sched_getaffinity(0))
    return [
        f"towercert: {package_file}",
        f"src sha256: {digest.hexdigest()}",
        f"git commit: {commit}",
        f"python: {platform.python_version()} ({sys.executable}); nproc: {cpus}",
    ]


def run_workload(workload: str, args, runner: Runner, checker: Checker) -> dict:
    size = "smoke" if args.smoke else "full"
    commands = command_set(workload, args.seed, size)
    runner.started = time.perf_counter()
    passes, setup = runner.loop(commands, args.seconds, args.trace == 1)
    outcomes = check_ops(checker, passes)
    ops = [op for p in passes for op in p.ops]
    failed = [op for op in ops if not outcomes[id(op)].ok]
    if args.trace:
        metrics, notes = per_layer(passes, outcomes)
    else:
        metrics, notes = end_to_end(passes, outcomes, setup)
    print(f"== workload {workload} (seed {args.seed}, size {size}, trace {args.trace})")
    print("pass: " + " ; ".join(c.text() for c in commands))
    print(f"passes: {len(passes)}, commands run: {len(ops)}, closed loop, one client, --jobs 1")
    for note in notes:
        print("  " + note)
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    if not args.trace:
        items = metrics["items_per_s"][0]
        alias = {
            "sweep": "conductors_per_s",
            "large-conductor": "conductors_per_s",
            "group-closure": "moduli_per_s",
            "survey": "records_per_s",
        }[workload]
        print(f"  {alias} = {items:.6g} 1/s (items_per_s on this workload)")
    print("  per command, untraced, raw seconds: median wall, median cpu, max RSS")
    for command in commands:
        mine = [op for op in ops if op.command == command and not op.traced]
        print(
            f"    {command.text()}: {statistics.median(op.wall_s for op in mine):.4f} s, "
            f"{statistics.median(op.cpu_s for op in mine):.4f} s, "
            f"{max(op.maxrss_kb for op in mine) / 1024:.1f} MB (n={len(mine)})"
        )
    print(f"  failed_frac = {len(failed)}/{len(ops)} = {len(failed) / len(ops):.6g}")
    for op in failed[:5]:
        errors = "; ".join(outcomes[id(op)].errors[:3])
        stderr = op.stderr.decode(errors="replace").strip().splitlines()[-1:] or [""]
        print(f"  FAILED {op.command.text()} (traced={op.traced}): {errors} {stderr[0]}")
    return {
        "correct": not failed,
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": {
            name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--smoke", action="store_true", help="tiny inputs, for the benchmark's tests"
    )
    args = parser.parse_args(argv)
    # Turn SIGTERM into SystemExit so that the cleanup below still runs.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    root = Path.cwd()
    if not (root / "src" / "towercert" / "cli.py").is_file():
        print(f"perfbench: no towercert source tree at {root / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    from towercert.records import parse_record

    checker = Checker(workloads.load_reference(), parse_record)
    run_dir = root / ".perfbench_run" / str(os.getpid())
    run_dir.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, PYTHONPATH=str(root / "src"), PYTHONHASHSEED="0")
    spawner = Spawner(root, env)
    try:
        runner = Runner(run_dir, spawner)
        runner.setup_probe()  # compiles bytecode once; users do not pay that per run
        print("tree under test:")
        for line in tree_identity(root, runner.setup_probe()[1]):
            print("  " + line)
        names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
        results = {name: run_workload(name, args, runner, checker) for name in names}
    finally:
        spawner.close()
        shutil.rmtree(run_dir, ignore_errors=True)
        try:
            run_dir.parent.rmdir()
        except OSError:  # another run is still using it
            pass
    if len(results) == 1:
        (result,) = results.values()
    else:
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {
                f"{name}.{metric}": value
                for name, r in results.items()
                for metric, value in r["metrics"].items()
            },
        }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
