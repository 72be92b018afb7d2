"""Benchmark of the addcomp command-line tool (see README.md beside this file).

    python3 bench/run.py --workload build-powers2 --seed 1 --seconds 55 --trace 0

With --trace 0 a single client runs the workload's commands as a closed
loop, one ``python -m addcomp`` process at a time, for at most --seconds.
Every command's exit code and output are checked against references; a
command that fails is counted and contributes no timing.  It reports the
fastest command's wall time, the median peak resident memory per command,
and the set-up time.

With --trace 1 the same commands run in this process instead, each cycle
once untraced and once with spans recorded around the calls into each
module (spans.py), and the per-layer metrics are reported.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  The line before it holds the
environment stamp.  Both also go to .bench_work/ at the repository root,
with every per-command sample, and with the spans of a traced run.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import itertools
import json
import os
import platform
import random
import resource
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

#: Set-up is repeated at least this many times, and for at least this long,
#: per run; the median is reported.
SETUP_REPEATS = 3
SETUP_MIN_S = 2.0
#: A command still running after this many seconds is killed and counted as failed.
CHILD_TIMEOUT_S = 120

HORIZON = 1 << 20
RANGE_LO, RANGE_HI = 128, 1 << 19
#: Share of (0, RANGE_HI] drawn into the verify workload's B before patching.
B_DENSITY = 0.2
#: Targets whose every representation is removed from B to make the failing file.
HOLES = 4
MAX_LISTED = 20

#: Outputs of ``build powers:2 --horizon 1048576`` at the seed commit.
BUILD_STDOUT = "built 110971 elements in 13 blocks (gamma=6, threshold=128)\n" \
               "coverage (128, 524288] verified\n"
BUILD_B_SHA256 = "4a25db3854b6410a5747f07cebeeb648351e3ce6914251d9df9bed704985094c"
BUILD_REPORT_SHA256 = "de9fd44feb39aa07a41f75dc117ec9c85c11b1f404a3fe049697c1e651313f49"
GAP_STDOUT = "no gaps in (10, 1000000]: every point splits as (element) + (non-element)\n"


@dataclass
class Command:
    """One CLI invocation and the check of its result.

    check(returncode, stdout) returns None when the result matches the
    reference, else the reason it does not.
    """

    argv: list[str]
    check: Callable[[int, str], str | None]


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _expect(rc: int, stdout: str, want_rc: int, want_stdout: str) -> str | None:
    if rc != want_rc:
        return f"exit {rc}, expected {want_rc}"
    if stdout != want_stdout:
        return f"stdout {stdout[:200]!r}, expected {want_stdout[:200]!r}"
    return None


def prepare_build(seed: int, work: Path) -> list[Command]:
    out, report = work / "B.set", work / "report.json"

    def check(rc, stdout):
        reason = _expect(rc, stdout, 0, BUILD_STDOUT)
        for path, want in ((out, BUILD_B_SHA256), (report, BUILD_REPORT_SHA256)):
            if reason is None and not path.exists():
                reason = f"{path.name} not written"
            elif reason is None and _sha256(path) != want:
                reason = f"{path.name} differs from the reference"
            # Consumed: the next command must write its own.
            path.unlink(missing_ok=True)
        return reason

    for path in (out, report):
        path.unlink(missing_ok=True)  # left by an earlier run
    return [Command(["build", "powers:2", "--horizon", str(HORIZON),
                     "--out", str(out), "--report", str(report)], check)]


def prepare_gap(seed: int, work: Path) -> list[Command]:
    return [Command(["gap", "composites", "--range", "10..1000000", "--horizon", "1000000"],
                    lambda rc, stdout: _expect(rc, stdout, 0, GAP_STDOUT))]


def _bits(elements, horizon: int) -> bytes:
    buf = bytearray((horizon >> 3) + 1)
    for e in elements:
        buf[e >> 3] |= 1 << (e & 7)
    return bytes(buf)


def natset_digest(elements, horizon: int) -> str:
    """addcomp's NatSet.content_digest, recomputed from the element list."""
    head = b"natset:1:" + horizon.to_bytes(8, "little")
    return hashlib.sha256(head + _bits(elements, horizon).rstrip(b"\0")).hexdigest()


def missing_line(missing: list[int]) -> str:
    shown = missing[:MAX_LISTED]
    more = f" ... and {len(missing) - len(shown)} more" if len(missing) > len(shown) else ""
    return f"missing {len(missing)} point(s): {' '.join(map(str, shown))}{more}\n"


def prepare_verify(seed: int, work: Path) -> list[Command]:
    """A seeded covering B of (RANGE_LO, RANGE_HI] for A = powers of two, and
    the same B with seeded holes; references from oracle.sumset_reference."""
    from addcomp.natset import NatSet
    from addcomp.oracle import sumset_reference

    rng = random.Random(seed)
    powers = [1 << k for k in range(HORIZON.bit_length())]
    a = NatSet(powers, HORIZON)
    in_a = set(powers)
    b = {x for x in range(1, RANGE_HI + 1) if x not in in_a and rng.random() < B_DENSITY}
    # Patch each uncovered target t with t - 1 (t - 2 when t - 1 is in A).
    b_mask = int.from_bytes(_bits(b, RANGE_HI), "little")
    reach = 0
    for x in powers:
        reach |= b_mask << x
    reach_bits = reach.to_bytes((reach.bit_length() + 8) >> 3, "little")
    b.update(t - 1 if t - 1 not in in_a else t - 2
             for t in range(RANGE_LO + 1, RANGE_HI + 1)
             if not (reach_bits[t >> 3] >> (t & 7)) & 1)
    holes = rng.sample(range(RANGE_LO + 1, RANGE_HI + 1), HOLES)
    holed = b - {t - x for t in holes for x in powers}

    commands = []
    for name, elems, covers in (("B.set", sorted(b), True), ("B-holes.set", sorted(holed), False)):
        path = work / name
        path.write_text(f"# verify workload, seed {seed}\n" + "".join(f"{e}\n" for e in elems))
        reach = set(sumset_reference(a, NatSet(elems, RANGE_HI), RANGE_HI))
        missing = [t for t in range(RANGE_LO + 1, RANGE_HI + 1) if t not in reach]
        if covers != (not missing):
            raise RuntimeError(f"verify workload: {name} has {len(missing)} missing points")
        if missing:
            want = (1, missing_line(missing))
        else:
            want = (0, f"coverage ({RANGE_LO}, {RANGE_HI}] verified; "
                       f"a={natset_digest(powers, HORIZON)[:12]} "
                       f"b={natset_digest(elems, RANGE_HI)[:12]}\n")
        commands.append(Command(
            ["verify", "powers:2", str(path), "--range", f"{RANGE_LO}..{RANGE_HI}",
             "--horizon", str(HORIZON)],
            lambda rc, stdout, want=want: _expect(rc, stdout, *want)))
    return commands


WORKLOADS = {
    "build-powers2": prepare_build,
    "gap-composites": prepare_gap,
    "verify-powers2": prepare_verify,
}


class Spawner:
    """The helper process (spawn.py) that starts every timed command."""

    def __init__(self):
        self._proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).with_name("spawn.py"))], cwd=ROOT,
            env={**os.environ, "PYTHONPATH": str(SRC)}, stdin=subprocess.PIPE,
            stdout=subprocess.PIPE, text=True)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        # End of input stops an idle helper; SIGTERM makes a busy one kill
        # its command first.  Either way, wait until it has ended.
        self._proc.stdin.close()
        self._proc.terminate()
        self._proc.wait()
        self._proc.stdout.close()

    def run(self, argv: list[str], work: Path) -> tuple[float, float, int, str]:
        """Run ``python -m addcomp *argv``; (wall s, peak RSS MiB, exit code, stdout)."""
        out = work / "stdout.txt"
        request = {"argv": [sys.executable, "-m", "addcomp", *argv], "cwd": str(ROOT),
                   "stdout": str(out), "stderr": str(work / "stderr.txt"),
                   "timeout": CHILD_TIMEOUT_S}
        self._proc.stdin.write(json.dumps(request) + "\n")
        self._proc.stdin.flush()
        line = self._proc.stdout.readline()
        if not line:
            raise RuntimeError("the spawn helper exited")
        done = json.loads(line)
        stdout = out.read_text(encoding="utf-8", errors="replace")
        return done["wall_s"], done["maxrss_kib"] / 1024, done["returncode"], stdout


def set_up(spawner: Spawner, prepare, seed: int, work: Path, version: str):
    """Start-up check of the CLI plus the workload's inputs and references,
    repeated (see SETUP_REPEATS); (commands, median set-up s, median start-up s)."""
    setups, startups = [], []
    while len(setups) < SETUP_REPEATS or sum(setups) < SETUP_MIN_S:
        start = time.perf_counter()
        startup, _, rc, stdout = spawner.run(["--version"], work)
        if (rc, stdout) != (0, f"addcomp {version}\n"):
            raise RuntimeError(f"`addcomp --version` gave exit {rc}, output {stdout!r}")
        commands = prepare(seed, work)
        setups.append(time.perf_counter() - start)
        startups.append(startup)
    return commands, statistics.median(setups), statistics.median(startups)


def closed_loop(spawner: Spawner, commands: list[Command], seconds: float, work: Path):
    """One client, one command at a time, for at most `seconds`: no command
    starts that would end later at the pace of the one before."""
    walls, rss, failures = [], [], []
    start = time.perf_counter()
    wall = 0.0
    for attempted, cmd in enumerate(itertools.cycle(commands)):
        if attempted and time.perf_counter() - start + wall > seconds:
            break
        wall, peak_mib, rc, stdout = spawner.run(cmd.argv, work)
        reason = cmd.check(rc, stdout)
        if reason:
            failures.append(reason)
            continue
        walls.append(wall)
        rss.append(peak_mib)
    return walls, rss, failures, attempted


def _in_process(cmd: Command, tracer=None) -> tuple[float, str | None]:
    from addcomp import cli

    out = io.StringIO()
    span = tracer.span("cli.main") if tracer else contextlib.nullcontext()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        start = time.perf_counter()
        with span:
            try:
                rc = cli.main(cmd.argv)
            except SystemExit as exc:  # argparse rejecting the arguments
                rc = exc.code
        wall = time.perf_counter() - start
    return wall, cmd.check(rc, out.getvalue())


def _cpu_s() -> float:
    return sum(u.ru_utime + u.ru_stime for u in
               (resource.getrusage(resource.RUSAGE_SELF),
                resource.getrusage(resource.RUSAGE_CHILDREN)))


def run_cycle(commands: list[Command], tracer=None) -> tuple[float, float, list[str]]:
    """Every command once in this process; (wall s, CPU s, failure reasons)."""
    wall, failures = 0.0, []
    cpu = _cpu_s()
    with tracer.installed() if tracer else contextlib.nullcontext():
        for cmd in commands:
            seconds, reason = _in_process(cmd, tracer)
            wall += seconds
            failures += [reason] if reason else []
    return wall, _cpu_s() - cpu, failures


def traced(commands: list[Command], seconds: float, trace_file: Path):
    """After one warm-up cycle, pairs of an untraced and a traced cycle for
    at most `seconds` (as in closed_loop, at least one pair); per-layer
    metrics are low medians over the traced cycles."""
    import spans

    _, _, failures = run_cycle(commands)  # fills caches and allocator pools
    reps = []
    start = time.perf_counter()
    while True:
        pair_start = time.perf_counter()
        untraced, _, bad = run_cycle(commands)
        failures += bad
        tracer = spans.Tracer()
        wall, cpu, bad = run_cycle(commands, tracer)
        failures += bad
        metrics = spans.layer_metrics(tracer.spans)
        metrics["cli.cpu_s"] = cpu
        metrics["trace.overhead_s"] = wall - untraced
        reps.append(metrics)
        now = time.perf_counter()
        if now - start + (now - pair_start) > seconds:
            break
    if tracer.missing:
        print(f"warning: not traced, attribute gone: {', '.join(tracer.missing)}",
              file=sys.stderr)
    tracer.write(trace_file)
    for key in spans.EXACT_COUNTS:
        if len({m[key] for m in reps}) > 1:
            failures.append(f"{key} differs between traced cycles: {[m[key] for m in reps]}")
    merged = {key: statistics.median_low(m[key] for m in reps) for key in reps[0]}
    attempted = (1 + 2 * len(reps)) * len(commands)
    return merged, failures, attempted, {"cli.main_s": [m["cli.main_s"] for m in reps]}


def environment(version: str) -> dict:
    commit = None
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
        commit = done.stdout.strip() if done.returncode == 0 else None
    return {
        "commit": commit,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "addcomp": version,
        "loadavg_1m_before": os.getloadavg()[0],
    }


def load_program():
    """Import addcomp from this checkout's src/, never from anywhere else."""
    if not (SRC / "addcomp" / "__init__.py").is_file():
        raise FileNotFoundError(f"no addcomp package under {SRC}")
    sys.path.insert(0, str(SRC))
    import addcomp

    if Path(addcomp.__file__).resolve().parent != SRC / "addcomp":
        raise ImportError(f"addcomp imported from {addcomp.__file__}, not from {SRC}")
    return addcomp


def report(values: dict, kind: str) -> dict:
    """The metrics BENCHMARK.json lists under `kind`, with its units."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec[kind]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # Turn a termination request into SystemExit so running children are killed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    try:
        addcomp = load_program()
    except (FileNotFoundError, ImportError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    work = WORK / args.workload
    work.mkdir(parents=True, exist_ok=True)
    env = environment(addcomp.__version__)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with Spawner() as spawner:
        commands, setup_s, startup_s = set_up(spawner, WORKLOADS[args.workload], args.seed,
                                              work, addcomp.__version__)
        if args.trace:
            values, failures, attempted, samples = traced(commands, args.seconds,
                                                          WORK / f"spans-{stem}.json")
            values["cli.startup_s"] = startup_s
        else:
            walls, rss, failures, attempted = closed_loop(spawner, commands, args.seconds, work)
            samples = {"wall_s": walls, "peak_rss_mb": rss}
            values = {"wall_min_s": min(walls), "peak_rss_mb": statistics.median(rss),
                      "setup_s": setup_s} if walls else None
    env["loadavg_1m_after"] = os.getloadavg()[0]
    for key, got in samples.items():
        if got:
            print(f"{key}: {len(got)} samples, min {min(got):.4f} median "
                  f"{statistics.median(got):.4f} max {max(got):.4f}")
    for reason in failures[:5]:
        print(f"failed: {reason}")
    metrics = report(values, "per_layer" if args.trace else "end_to_end") if values else {}
    result = {"correct": not failures and bool(metrics), "attempted": attempted,
              "failed": len(failures), "metrics": metrics}
    (WORK / f"result-{stem}.json").write_text(
        json.dumps({"env": env, **result, "samples": samples}, indent=1))
    print(json.dumps({"env": env}))
    print(json.dumps(result))
    return 0 if metrics else 1


if __name__ == "__main__":
    sys.exit(main())
