"""Self-checks of the benchmark: counts repeat exactly between traced runs,
and output that differs from the reference is counted as failed, not timed.

    python3 -m pytest bench -q
"""

import json
import shutil
import subprocess
import sys

import run
import spans

addcomp = run.load_program()


def _exit0(rc, stdout):
    return None if rc == 0 else f"exit {rc}"


SMALL = [
    run.Command(["build", "powers:2", "--horizon", "65536"], _exit0),
    run.Command(["gap", "composites", "--range", "10..20000", "--horizon", "20000"], _exit0),
]


def _counts(commands):
    tracer = spans.Tracer()
    _, _, failures = run.run_cycle(commands, tracer)
    assert failures == []
    metrics = spans.layer_metrics(tracer.spans)
    return {key: metrics[key] for key in spans.EXACT_COUNTS}


def test_traced_counts_repeat_exactly(tmp_path):
    commands = SMALL + run.prepare_verify(7, tmp_path)
    first = _counts(commands)
    assert first == _counts(commands)
    for key in ("greedy.picks", "cover.candidates", "natset.sumset_shifts", "natset.sumset_calls"):
        assert first[key] > 0
    assert not hasattr(addcomp.greedy.greedy_cover, "__wrapped__")  # originals restored


def test_tampered_verify_inputs_fail_and_are_not_timed(tmp_path):
    commands = run.prepare_verify(3, tmp_path)
    with run.Spawner() as spawner:
        walls, _, failures, attempted = run.closed_loop(spawner, commands, 1.5, tmp_path)
        assert failures == [] and len(walls) == attempted >= 2
        # Swap the covering B and the holed B: every exit code and output is now wrong.
        covering, holed = tmp_path / "B.set", tmp_path / "B-holes.set"
        good = covering.read_bytes()
        covering.write_bytes(holed.read_bytes())
        holed.write_bytes(good)
        walls, rss, failures, attempted = run.closed_loop(spawner, commands, 1.5, tmp_path)
    assert attempted >= 2 and len(failures) == attempted
    assert walls == rss == []


def test_tampered_build_outputs_fail_the_check(tmp_path):
    [cmd] = run.prepare_build(1, tmp_path)
    (tmp_path / "B.set").write_text("# complement of powers:2\n66\n68\n")
    (tmp_path / "report.json").write_text("{}\n")
    assert cmd.check(0, run.BUILD_STDOUT) == "B.set differs from the reference"
    # The check consumes the outputs, so files left behind never pass a later command.
    assert cmd.check(0, run.BUILD_STDOUT) == "B.set not written"
    assert cmd.check(2, run.BUILD_STDOUT) == "exit 2, expected 0"


def test_gap_check_rejects_other_output(tmp_path):
    [cmd] = run.prepare_gap(1, tmp_path)
    assert cmd.check(0, run.GAP_STDOUT) is None
    assert cmd.check(1, run.GAP_STDOUT) is not None
    assert cmd.check(0, "missing 1 point(s): 11\n") is not None


def test_fails_without_the_program(tmp_path):
    shutil.copytree(run.ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "verify-powers2", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert "correct" not in done.stdout
    assert sorted(p.name for p in tmp_path.iterdir()) == ["BENCHMARK.json", "bench"]


def test_benchmark_json_lists_what_a_run_reports(tmp_path):
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} <= set(run.WORKLOADS)
    tracer = spans.Tracer()
    run.run_cycle(run.prepare_verify(1, tmp_path), tracer)
    values = spans.layer_metrics(tracer.spans)
    values.update(dict.fromkeys(("cli.cpu_s", "trace.overhead_s", "cli.startup_s"), 0.0))
    assert set(run.report(values, "per_layer")) == set(values)
    assert set(run.report(dict.fromkeys(("wall_min_s", "peak_rss_mb", "setup_s"), 1.0),
                          "end_to_end")) == {"wall_min_s", "peak_rss_mb", "setup_s"}
