import hashlib
import json
import os
import random
import signal
import subprocess
import sys
import time
import tracemalloc
from fractions import Fraction

import pytest

from addcomp import NatSet, generate, parse_spec, read_set_file, write_set_file
import addcomp.builder as builder_module
import addcomp.cli as cli_module
from addcomp.cli import main


def test_build_verify_round_trip(tmp_path):
    out = tmp_path / "B.set"
    report_path = tmp_path / "R.json"
    code = main(
        ["build", "powers:2", "--horizon", "65536", "--out", str(out), "--report", str(report_path)]
    )
    assert code == 0
    report = json.loads(report_path.read_text())
    assert report["parameters"]["gamma"] == 6
    assert report["parameters"]["threshold"] == 128
    assert report["coverage"]["ok"] is True
    lo, hi = report["coverage"]["lo"], report["coverage"]["hi"]
    code = main(["verify", "powers:2", str(out), "--range", f"{lo}..{hi}", "--horizon", "65536"])
    assert code == 0


def test_build_output_bytes_are_pinned(tmp_path, capsys):
    out = tmp_path / "B.set"
    assert main(["build", "powers:2", "--horizon", "65536", "--out", str(out)]) == 0
    assert capsys.readouterr().out == (
        "built 8503 elements in 9 blocks (gamma=6, threshold=128)\n"
        "coverage (128, 32768] verified\n"
    )
    assert hashlib.sha256(out.read_bytes()).hexdigest() == (
        "458167d56e2ae8099aa3afb7fdc1fb18f623f180b3056b5ef429ee85a80226da"
    )


def test_report_schema_keys(tmp_path):
    report_path = tmp_path / "R.json"
    assert main(["build", "powers:2", "--horizon", "4096", "--report", str(report_path)]) == 0
    report = json.loads(report_path.read_text())
    assert list(report) == [
        "tool_version",
        "spec",
        "horizon",
        "parameters",
        "blocks",
        "coverage",
        "density_samples",
    ]
    assert set(report["parameters"]) >= {"n0", "alpha", "r", "p", "gamma", "threshold"}
    assert set(report["coverage"]) == {"lo", "hi", "ok", "missing_count"}
    assert all({"exponent", "base", "size", "degenerate"} <= set(b) for b in report["blocks"])
    assert all({"n", "count", "ratio"} == set(s) for s in report["density_samples"])


def test_build_output_is_disjoint_from_base(tmp_path):
    out = tmp_path / "B.set"
    assert main(["build", "powers:2", "--horizon", "4096", "--out", str(out)]) == 0
    b = read_set_file(out)
    a = generate(parse_spec("powers:2", 4096))
    assert b.with_horizon(4096).isdisjoint(a)


def test_build_ratio_failure_exits_2(capsys):
    assert main(["build", "composites", "--horizon", "100000"]) == 2
    assert "error" in capsys.readouterr().err


def test_build_failing_coverage_lists_the_missing_points(tmp_path, capsys, monkeypatch):
    # certify against an empty B: a real certificate that misses all of (128, 2048]
    real_verify_cover = builder_module.verify_cover
    monkeypatch.setattr(builder_module, "verify_cover",
                        lambda a, b, lo, hi: real_verify_cover(a, NatSet([], b.horizon), lo, hi))
    report_path = tmp_path / "R.json"
    assert main(["build", "powers:2", "--horizon", "4096", "--report", str(report_path)]) == 1
    assert capsys.readouterr().out == (
        "built 671 elements in 5 blocks (gamma=6, threshold=128)\n"
        "missing 1920 point(s): " + " ".join(map(str, range(129, 149)))
        + " ... and 1900 more\n"
    )
    coverage = json.loads(report_path.read_text())["coverage"]
    assert coverage == {"lo": 128, "hi": 2048, "ok": False, "missing_count": 1920}


def test_build_helper_killed_exits_2_naming_block_and_signal(monkeypatch, capsys):
    # one block, so only the forked helper calls thin_block, and it dies without a result
    monkeypatch.setattr(builder_module, "thin_block",
                        lambda a, q: os.kill(os.getpid(), signal.SIGKILL))
    assert main(["build", "powers:2", "--horizon", "256"]) == 2
    assert capsys.readouterr() == ("", "error: block exponent 6: the thinning helper was killed "
                                       "by SIGKILL before sending the block\n")


def test_build_empty_file_exits_2(tmp_path):
    empty = tmp_path / "empty.set"
    empty.write_text("# nothing\n")
    assert main(["build", f"file:{empty}", "--horizon", "1024"]) == 2


def test_build_bad_spec_exits_2():
    assert main(["build", "powersof:2", "--horizon", "1024"]) == 2


def test_build_unknown_spec_names_both_readings(capsys):
    assert main(["build", "nonsense", "--horizon", "10"]) == 2
    assert "is neither a known sequence spec nor an existing file" in capsys.readouterr().err


def test_build_reads_a_bare_path_as_file_spec(tmp_path, capsys):
    a_file = tmp_path / "A.set"
    write_set_file(a_file, NatSet([10**i for i in range(7)], 10**6))
    outputs = []
    for spec in (f"file:{a_file}", str(a_file)):
        out, report = tmp_path / "B.set", tmp_path / "R.json"
        assert main(["build", spec, "--horizon", "1000000", "--alpha", "10",
                     "--out", str(out), "--report", str(report)]) == 0
        outputs.append((capsys.readouterr().out, out.read_bytes(), report.read_bytes()))
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("flag", ["--out", "--report"])
def test_build_unwritable_output_exits_2(tmp_path, capsys, flag):
    target = tmp_path / "missing-dir" / "file"
    assert main(["build", "powers:2", "--horizon", "4096", flag, str(target)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert err.count("\n") == 1


def test_verify_detects_missing(tmp_path, capsys):
    broken = tmp_path / "broken.set"
    write_set_file(broken, NatSet([5], 10))
    assert main(["verify", "powers:2", str(broken), "--range", "100..200", "--horizon", "1024"]) == 1
    assert "missing" in capsys.readouterr().out


def test_verify_rejects_b_meeting_a(tmp_path, capsys):
    # 1..4096 covers every target but contains the powers of two themselves,
    # including 4096 above the range: disjointness is checked up to A's horizon
    overlapping = tmp_path / "all.set"
    write_set_file(overlapping, NatSet(range(1, 4097), 4096))
    code = main(["verify", "powers:2", str(overlapping), "--range", "128..2048",
                 "--horizon", "4096"])
    assert code == 1
    out = capsys.readouterr().out
    assert out.startswith(
        "B meets A in 13 point(s): 1 2 4 8 16 32 64 128 256 512 1024 2048 4096\n"
    )


def test_verify_sees_b_meeting_a_above_the_range(tmp_path, capsys):
    # A built B plus 4096, a power of two above hi: coverage of (128, 2048] holds
    clip = tmp_path / "clip.set"
    assert main(["build", "powers:2", "--horizon", "4096", "--out", str(clip)]) == 0
    with open(clip, "a", encoding="utf-8") as fh:
        fh.write("4096\n")
    capsys.readouterr()
    code = main(["verify", "powers:2", str(clip), "--range", "128..2048",
                 "--horizon", "4096"])
    assert code == 1
    assert capsys.readouterr().out == "B meets A in 1 point(s): 4096\n"


def test_verify_lists_at_most_twenty(tmp_path, capsys):
    broken = tmp_path / "broken.set"
    write_set_file(broken, NatSet([5], 10))
    main(["verify", "powers:2", str(broken), "--range", "100..200", "--horizon", "1024"])
    out = capsys.readouterr().out
    assert "more" in out
    listed = out.split(":")[1].split("...")[0].split()
    assert len(listed) == 20


def test_verify_prints_a_large_miss_without_listing_it(tmp_path, capsys):
    # the missing points stay one bitmask: counted and cut at twenty, never listed whole
    lone = tmp_path / "B.set"
    write_set_file(lone, [3])
    tracemalloc.start()
    try:
        code = main(["verify", "powers:2", str(lone), "--range", "0..1048576",
                     "--horizon", "1048576"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 1
    assert capsys.readouterr().out == (
        "missing 1048556 point(s): 1 2 3 6 8 9 10 12 13 14 15 16 17 18 20 21 22 23 24 25"
        " ... and 1048536 more\n"
    )
    assert peak < 4 * 2**20, peak


def test_thin_dyadic_mode(tmp_path):
    out = tmp_path / "S.set"
    report_path = tmp_path / "T.json"
    code = main(
        ["thin", "powers:2", "--q", "64", "--horizon", "512",
         "--out", str(out), "--report", str(report_path)]
    )
    assert code == 0
    report = json.loads(report_path.read_text())
    assert report["depth"] == 4
    assert report["gain_cutoff"] == 2
    assert report["degenerate"] is False
    assert report["selected_size"] == len(read_set_file(out))
    assert sum(report["gains"]) == 128  # the window (128, 256] is covered once each


def test_thin_explicit_mode(tmp_path):
    a_file = tmp_path / "A.set"
    b_file = tmp_path / "B.set"
    write_set_file(a_file, NatSet([1, 2, 3, 4, 5, 6, 7, 8], 40))
    write_set_file(b_file, NatSet(list(range(11, 41)), 40))
    code = main(
        ["thin", f"file:{a_file}", "--m", "16", "--n", "20",
         "--x1", "10", "--x2", "40", "--b-file", str(b_file), "--horizon", "40"]
    )
    assert code == 0


@pytest.mark.parametrize("args, sha256", [
    (["powers:2", "--q", "8", "--horizon", "1024"],
     "b149fd710a63f94142f06f138e0636029d420adbd66526c347cbbcc2c99b1ad2"),
    (["powers:2", "--q", "4096"],
     "7cc680e3d273a1ff6e8245bb24f20ffcae875d7799af5158d5ad83ac27bf603c"),
    (["file:A.set", "--m", "16", "--n", "20", "--x1", "10", "--x2", "40",
      "--b-file", "B.set", "--horizon", "40"],
     "b1364c9248d45dd7b99ae170890f6cce469148c4dbf959847d3684f67a4395da"),
], ids=["degenerate", "dyadic", "explicit"])
def test_thin_report_bytes_are_pinned(tmp_path, monkeypatch, args, sha256):
    # relative paths, since the report echoes the spec string
    monkeypatch.chdir(tmp_path)
    write_set_file("A.set", NatSet([1, 2, 3, 4, 5, 6, 7, 8], 40))
    write_set_file("B.set", NatSet(list(range(11, 41)), 40))
    assert main(["thin", *args, "--report", "R.json"]) == 0
    assert hashlib.sha256((tmp_path / "R.json").read_bytes()).hexdigest() == sha256


def test_thin_report_peak_gain_is_the_largest_gain(tmp_path, monkeypatch):
    # a degenerate replay's gains need not descend, so the first one is not the peak
    monkeypatch.chdir(tmp_path)
    write_set_file("A.set", [1, 2, 3, 4, 6, 9, 10])
    write_set_file("B.set", [5, 7, 8])
    argv = ["thin", "A.set", "--m", "9", "--n", "1", "--x1", "4", "--x2", "10",
            "--b-file", "B.set", "--report", "R.json"]
    assert main(argv) == 0
    report = json.loads((tmp_path / "R.json").read_text())
    assert report["degenerate"] is True
    assert report["gains"] == [0, 1, 0]
    assert report["peak_gain"] == 1


def test_thin_explicit_mode_rejects_b_beyond_x2(tmp_path, capsys):
    b_file = tmp_path / "B.set"
    write_set_file(b_file, [*range(5, 17), 500])
    code = main(
        ["thin", "powers:2", "--m", "8", "--n", "8", "--x1", "4", "--x2", "16",
         "--b-file", str(b_file), "--horizon", "16"]
    )
    assert code == 2
    assert "B subset of (x1, x2]" in capsys.readouterr().err


def test_thin_explicit_mode_rejects_b_meeting_a(tmp_path, capsys):
    b_file = tmp_path / "B.set"
    out = tmp_path / "S.set"
    write_set_file(b_file, range(5, 17))  # holds the powers 8 and 16
    code = main(
        ["thin", "powers:2", "--m", "8", "--n", "8", "--x1", "4", "--x2", "16",
         "--b-file", str(b_file), "--horizon", "16", "--out", str(out)]
    )
    assert code == 2
    assert "B n A = empty" in capsys.readouterr().err
    assert not out.exists()


def test_thin_explicit_mode_checks_b_meeting_a_before_depth(tmp_path, capsys):
    # B = {8, 9} meets A at 8, and its depth 2 - (16 - 4 - 2) is negative too
    b_file = tmp_path / "B.set"
    write_set_file(b_file, [8, 9])
    code = main(
        ["thin", "powers:2", "--m", "8", "--n", "8", "--x1", "4", "--x2", "16",
         "--b-file", str(b_file), "--horizon", "16"]
    )
    assert code == 2
    assert "B n A = empty: 8 is in both" in capsys.readouterr().err


def test_thin_explicit_mode_rejects_horizon_below_x2(tmp_path, capsys):
    # membership in A is unknown on (12, 16], so B's 13 cannot be checked
    a_file = tmp_path / "A.set"
    b_file = tmp_path / "B.set"
    write_set_file(a_file, [1, 2, 3])
    write_set_file(b_file, range(5, 17))
    code = main(
        ["thin", f"file:{a_file}", "--m", "8", "--n", "8", "--x1", "4", "--x2", "16",
         "--b-file", str(b_file), "--horizon", "12"]
    )
    assert code == 2
    assert "horizon >= x2: horizon 12 < 16" in capsys.readouterr().err


def test_thin_explicit_mode_requires_all_flags(capsys):
    assert main(["thin", "powers:2", "--horizon", "512", "--m", "16"]) == 2
    assert "--" in capsys.readouterr().err


@pytest.mark.parametrize("horizon", [[], ["--horizon", "64"]])
@pytest.mark.parametrize("q", ["0", "-1"])
def test_thin_rejects_q_below_one(capsys, q, horizon):
    # named as the q the user gave, not as the horizon 4q or block_cover's m
    assert main(["thin", "powers:2", "--q", q, *horizon]) == 2
    assert f"q >= 1: got q={q}" in capsys.readouterr().err


@pytest.mark.parametrize("horizon", ["0", "-1"])
@pytest.mark.parametrize("argv", [
    ["thin", "powers:2", "--q", "8"],
    ["thin", "powers:2", "--m", "8", "--n", "8", "--x1", "4", "--x2", "16", "--b-file", "B.set"],
    ["oracle", "powers:2", "--m", "8", "--n", "8", "--x1", "4", "--x2", "16"],
    ["density", "powers:2"],
], ids=["thin-q", "thin-explicit", "oracle", "density"])
def test_horizon_below_one_exits_2(capsys, argv, horizon):
    # 0 is a horizon the user gave, not a missing one that defaults to 4q or x2
    assert main([*argv, "--horizon", horizon]) == 2
    assert f"horizon must be at least 1, got {horizon}" in capsys.readouterr().err


@pytest.mark.parametrize("horizon", ["0", "-7"])
@pytest.mark.parametrize("argv", [
    ["verify", "powers:2", "B.set", "--range", "2..6"],
    ["gap", "powers:2", "--range", "2..20"],
], ids=["verify", "gap"])
def test_range_commands_reject_horizon_below_one(capsys, argv, horizon):
    # not raised to the range's upper end, which would run the check at hi
    assert main([*argv, "--horizon", horizon]) == 2
    assert f"horizon must be at least 1, got {horizon}" in capsys.readouterr().err


@pytest.mark.parametrize("argv, err", [
    (["verify", "powers:2", "B.set", "--range", "2..6", "--horizon", "5"],
     "hi=6 beyond a horizon (a: 5, b: 5); exactness would be lost"),
    (["gap", "powers:2", "--range", "2..20", "--horizon", "7"], "hi=20 beyond horizon 7"),
], ids=["verify", "gap"])
def test_range_commands_keep_a_horizon_below_hi(tmp_path, monkeypatch, capsys, argv, err):
    # a given horizon is never raised to hi, so a check past it exits 2 rather than run at hi
    monkeypatch.chdir(tmp_path)
    write_set_file("B.set", [3, 5])  # misses 3 of (2, 6] at hi
    assert main(argv) == 2
    assert capsys.readouterr().err == f"error: {err}\n"


@pytest.mark.parametrize("argv", [
    ["gap", "powers:2", "--range", "1..10"],
    ["build", "powers:2"],
    ["verify", "powers:2", "B.set", "--range", "128..256"],
    ["gap", "primes", "--range", "1..10"],
    ["gap", "composites", "--range", "1..10"],
], ids=["gap", "build", "verify", "gap-primes", "gap-composites"])
def test_horizon_past_the_index_range_exits_2(tmp_path, monkeypatch, capsys, argv):
    # refused before any buffer is asked for, the sieve's included: the command
    # allocates next to nothing
    monkeypatch.chdir(tmp_path)
    write_set_file("B.set", [3, 5])
    huge = str(10**40)
    tracemalloc.start()
    try:
        code = main([*argv, "--horizon", huge])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2
    err = capsys.readouterr().err
    assert err == f"error: horizon must be below {8 * sys.maxsize}, got {huge}\n"
    assert peak < 2**20, peak


@pytest.mark.parametrize("argv, owner, patched", [
    (["gap", "powers:2", "--range", "1..10"], cli_module, "generate"),
    (["build", "powers:2", "--horizon", "1024"], builder_module, "build_complement"),
], ids=["gap", "build"])
def test_running_out_of_memory_exits_2(monkeypatch, capsys, argv, owner, patched):
    # the error is raised, not provoked: nothing large is allocated
    def exhausted(*args, **kwargs):
        raise MemoryError()

    monkeypatch.setattr(owner, patched, exhausted)
    assert main(argv) == 2
    assert capsys.readouterr().err == f"error: {argv[0]} ran out of memory\n"


@pytest.mark.parametrize("horizon, hi", [("256", 256), ("512", 256), ("1000", 512)])
def test_build_never_prints_an_empty_range(capsys, horizon, hi):
    # at 256 the one block ends at the horizon and is certified whole, not as (128, 128]
    assert main(["build", "powers:2", "--horizon", horizon]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[1] == f"coverage (128, {hi}] verified"
    assert 128 < hi <= int(horizon)


@pytest.mark.parametrize("text", ["2..x", "x..5", "5", "1..2..3"])
def test_range_must_be_two_integers(capsys, text):
    assert main(["gap", "powers:2", "--range", text]) == 2
    assert capsys.readouterr().err == f"error: range must look like LO..HI, got {text!r}\n"


def test_thin_q_rejects_explicit_mode_flags(capsys):
    args = ["thin", "powers:2", "--q", "8", "--x2", "99", "--b-file", "nonexistent"]
    assert main(args) == 2
    assert "error: --q does not take --x2, --b-file" in capsys.readouterr().err
    assert main(["thin", "powers:2", "--q", "8", "--m", "16", "--n", "16", "--x1", "8"]) == 2
    assert "error: --q does not take --m, --n, --x1" in capsys.readouterr().err


def test_oracle_b_file_rejects_window_flags(tmp_path, capsys):
    b_file = tmp_path / "B.set"
    write_set_file(b_file, [5, 6, 7, 9])
    argv = ["oracle", "powers:2", "--horizon", "32", "--m", "8", "--n", "8",
            "--b-file", str(b_file)]
    assert main([*argv, "--x1", "4", "--x2", "16"]) == 2
    assert "error: --b-file does not take --x1, --x2" in capsys.readouterr().err
    assert main([*argv, "--x2", "16"]) == 2
    assert "error: --b-file does not take --x2" in capsys.readouterr().err


def test_thin_precondition_failure_exits_2(tmp_path):
    a_file = tmp_path / "A.set"
    write_set_file(a_file, NatSet([9, 10, 11], 64))
    assert main(["thin", f"file:{a_file}", "--q", "8", "--horizon", "64"]) == 2


def test_build_report_blocks_mixing_degenerate_regime(tmp_path):
    # the sparse early blocks of 10^i are kept whole (no bounds), the later
    # ones are thinned; both regimes share one trace construction
    a_file = tmp_path / "tenpow.set"
    write_set_file(a_file, NatSet([10**i for i in range(7)], 10**6))
    report_path = tmp_path / "R.json"
    assert main(["build", f"file:{a_file}", "--horizon", "1000000", "--alpha", "10",
                 "--report", str(report_path)]) == 0
    blocks = json.loads(report_path.read_text())["blocks"]
    got = [(b["exponent"], b["size"], b["degenerate"], b["depth"], b["gain_cutoff"],
            b["bound_two_term"], b["bound_closed_form"]) for b in blocks]
    assert got == [
        (8, 767, True, 2, 1, None, None),
        (9, 1535, True, 2, 1, None, None),
        (10, 747, False, 4, 2, 2176.0, 2324.337034670038),
        (11, 1287, False, 4, 2, 4352.0, 4648.674069340076),
        (12, 2324, False, 3, 2, 10239.5, 11030.566469180016),
        (13, 4428, False, 3, 2, 20479.5, 22061.697320753556),
        (14, 8910, False, 5, 3, 28945.066666666666, 31552.86490918965),
        (15, 17640, False, 4, 2, 69631.625, 74378.36182264608),
        (16, 34808, False, 4, 2, 139263.625, 148757.14693208731),
        (17, 66277, False, 6, 3, 207530.66666666666, 224915.98828348657),
    ]


def test_density_csv(tmp_path, capsys):
    out = tmp_path / "d.csv"
    assert main(["density", "powers:2", "--horizon", "1024", "--samples", "6",
                 "--format", "csv", "--out", str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "n,count,ratio"
    last = lines[-1].split(",")
    assert int(last[0]) == 1024
    assert int(last[1]) == 11  # powers of two up to 1024


def test_density_estimates_use_tail_half(tmp_path, capsys):
    # samples at 1, 5, 22 and 100; the tail half is 22 and 100
    s_file = tmp_path / "S.set"
    write_set_file(s_file, [1, 2, 3, 4])
    assert main(["density", str(s_file), "--horizon", "100", "--samples", "4"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert [x["n"] for x in payload["samples"]] == [1, 5, 22, 100]
    assert payload["upper_estimate"] == 4 / 22
    assert payload["lower_estimate"] == 0.04


@pytest.mark.parametrize("fmt, sha256", [
    ([], "89f433ce07d8b8ab2be352ccc0f4f14d1bae35ed73206de8d835db531f3f8d5d"),
    (["--format", "csv"], "89516f8e6a0d8236cc8b839c3cbd82c95f106c09de27010ccf4c8b5cdb26376c"),
], ids=["json", "csv"])
def test_density_output_bytes_are_pinned(capsys, fmt, sha256):
    assert main(["density", "powers:2", "--horizon", "1048576", "--samples", "32", *fmt]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == sha256


def test_density_json_stdout(capsys):
    assert main(["density", "powers:2", "--horizon", "64", "--samples", "4"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["horizon"] == 64
    assert payload["samples"][-1]["n"] == 64


@pytest.mark.parametrize("samples", ["0", "-3"])
def test_density_names_the_sample_count(capsys, samples):
    assert main(["density", "powers:2", "--horizon", "64", "--samples", samples]) == 2
    assert capsys.readouterr().err == f"error: sample count must be at least 1, got {samples}\n"
    assert main(["density", "powers:2", "--horizon", "64", "--samples", "1"]) == 0
    assert [x["n"] for x in json.loads(capsys.readouterr().out)["samples"]] == [64]


@pytest.mark.parametrize("argv, clause", [
    (["build", "powers:2", "--horizon", "1024", "--alpha", "abc"],
     "cannot interpret 'abc' as a ratio bound"),
    (["density", "powers:2"], "spec 'powers:2' needs an explicit horizon"),
    (["gap", "powers:2", "--range", "9..3"], "range upper end 3 below lower end 9"),
    # (LO, LO] holds no point, so there is no coverage to verify and no gap to find
    (["verify", "powers:2", "B.set", "--range", "5..5"], "range (5, 5] is empty"),
    (["gap", "powers:2", "--range", "7..7"], "range (7, 7] is empty"),
    # nor does a range with no point above 0
    (["verify", "powers:2", "B.set", "--range=-10..0"], "range (-10, 0] is empty"),
    (["gap", "powers:2", "--range=-10..0"], "range (-10, 0] is empty"),
    # a value past 1000 digits is named by its power of ten (str() refuses 4300)
    (["build", "powers:2", "--horizon", "1024", "--alpha", "1e5000"],
     "no tail satisfies a_(n+1) >= about 10^5000 * a_n"),
    (["build", "powers:2", "--horizon", "1024", "--alpha", "1e-5000"],
     "ratio bound must exceed 1, got about 10^-5000"),
    (["gap", "geometric:c=1,alpha=1e-5000", "--range", "1..10", "--horizon", "10"],
     "geometric ratio must exceed 1, got about 10^-5000"),
    (["gap", "geometric:c=-1e5000,alpha=2", "--range", "1..10", "--horizon", "10"],
     "geometric scale must be positive, got about -10^5000"),
    # alpha = 2 alone needs 10 terms below 1000; the scale asks for about 332,000 more
    (["gap", "geometric:c=1e-99999,alpha=2", "--range", "1..100", "--horizon", "1000"],
     "geometric scale too small for exact generation"),
    # int() reads 4000 digits, which the horizon rule refuses; 5000 are past its digit limit
    (["density", "powers:2", "--horizon", "1" * 4000],
     f"horizon must be below {8 * sys.maxsize}, got about 10^3999"),
    (["gap", "powers:2", "--range", "1.." + "1" * 4000],
     f"horizon must be below {8 * sys.maxsize}, got about 10^3999"),
    (["gap", "powers:2", "--range", "1.." + "1" * 5000], "range end too long to read (5000 digits)"),
    # spec parameters and --alpha past that limit are named by their digit count too
    (["gap", "powers:" + "1" * 5000, "--range", "1..10", "--horizon", "10"],
     "powers base too long to read (5000 digits)"),
    (["gap", f"geometric:c={'1' * 5000},alpha=2", "--range", "1..10", "--horizon", "10"],
     "scale too long to read (5000 digits)"),
    (["gap", f"geometric:c=1,alpha=-{'1' * 5000}", "--range", "1..10", "--horizon", "10"],
     "ratio too long to read (5000 digits)"),
    (["build", "powers:2", "--horizon", "1024", "--alpha", "1" * 5000],
     "ratio bound too long to read (5000 digits)"),
    # and so are a fraction or a decimal whose digits int() refuses
    (["build", "powers:2", "--horizon", "1024", "--alpha", "1/" + "1" * 5000],
     "ratio bound too long to read (5001 digits)"),
    (["build", "powers:2", "--horizon", "1024", "--alpha", "1." + "1" * 5000],
     "ratio bound too long to read (5001 digits)"),
    (["gap", f"geometric:c=1/{'1' * 5000},alpha=2", "--range", "1..10", "--horizon", "10"],
     "scale too long to read (5001 digits)"),
    (["build", "powers:2", "--horizon", "1024", "--alpha", "1/0"],
     "cannot interpret '1/0' as a ratio bound"),
    # and a range end int() reads but past 1000 digits by its power of ten
    (["gap", "powers:2", "--range", "1" * 3000 + "..5"],
     "range upper end 5 below lower end about 10^2999"),
    (["gap", "powers:2", "--range", "1.." + "1" * 3000, "--horizon", "1"],
     "hi=about 10^2999 beyond horizon 1"),
    (["gap", "powers:2", "--range", f"{'1' * 3000}..{'1' * 3000}"],
     "range (about 10^2999, about 10^2999] is empty"),
    # checked before the sampling loop, which runs once per point asked for
    (["density", "powers:2", "--horizon", "1024", "--samples", "1000001"],
     "sample count must be at most 1000000, got 1000001"),
    # a large exponent is refused before Fraction writes out its digits
    (["build", "powers:2", "--horizon", "1024", "--alpha", "1e999999999"],
     "ratio bound exponent must be at most 100000 in size, got '1e999999999'"),
    (["gap", "geometric:c=1,alpha=2e-100001", "--range", "1..10", "--horizon", "10"],
     "ratio exponent must be at most 100000 in size, got '2e-100001'"),
    # argparse's integer options: a short bad value as argparse words it, a long one cut
    (["gap", "powers:2", "--range", "1..10", "--horizon", "abc"],
     "argument --horizon: invalid int value: 'abc'"),
    (["gap", "powers:2", "--range", "1..10", "--horizon", "1" * 5000],
     "argument --horizon: integer too long to read (5000 digits)"),
    (["thin", "powers:2", "--q", "-" + "1" * 5000],
     "argument --q: integer too long to read (5000 digits)"),
    (["density", "powers:2", "--horizon", "64", "--samples", "1" * 5000],
     "argument --samples: integer too long to read (5000 digits)"),
    (["oracle", "powers:2", "--m", "1", "--n", "x" * 5000],
     f"argument --n: invalid int value: {'x' * 64!r} (first 64 of 5000 characters)"),
    # and bad number text anywhere else is cut the same way
    (["density", "fraction.set"],
     f"fraction.set:1: not an integer: {'1/' + '1' * 62!r} (first 64 of 5002 characters)"),
    (["gap", "powers:1/" + "1" * 5000, "--range", "1..10", "--horizon", "10"],
     f"powers spec needs an integer base, got {'1/' + '1' * 62!r} (first 64 of 5002 characters)"),
    (["gap", "powers:2", "--range", "1..x" + "1" * 5000],
     f"range must look like LO..HI, got {'1..x' + '1' * 60!r} (first 64 of 5004 characters)"),
    (["build", "powers:2", "--horizon", "1024", "--alpha", "x" * 5000],
     f"cannot interpret {'x' * 64!r} (first 64 of 5000 characters) as a ratio bound"),
    # text that would not read whatever its length is bad text, not text too long to read
    (["build", "powers:2", "--horizon", "1024", "--alpha", "x" + "1" * 5000],
     f"cannot interpret {'x' + '1' * 63!r} (first 64 of 5001 characters) as a ratio bound"),
    (["gap", f"geometric:c=1,alpha=2/{'1' * 5000}x", "--range", "1..10", "--horizon", "10"],
     f"cannot interpret {'2/' + '1' * 62!r} (first 64 of 5003 characters) as a ratio"),
    (["build", "powers:2", "--horizon", "1024", "--alpha", "x1e999999999"],
     "cannot interpret 'x1e999999999' as a ratio bound"),
    # the ends are read in turn, so a long LO is named before a bad HI is seen
    (["gap", "powers:2", "--range", "1" * 5000 + "..x"], "range end too long to read (5000 digits)"),
], ids=["alpha", "density-horizon", "range", "verify-empty-range", "gap-empty-range",
        "verify-nonpositive-range", "gap-nonpositive-range", "huge-alpha", "tiny-alpha",
        "tiny-geometric-ratio", "huge-negative-scale", "tiny-scale", "long-horizon",
        "long-range-end", "unreadable-range-end", "unreadable-powers-base", "unreadable-scale",
        "unreadable-ratio", "unreadable-alpha", "unreadable-fraction-alpha",
        "unreadable-decimal-alpha", "unreadable-fraction-scale", "zero-denominator-alpha",
        "long-lower-range-end", "long-hi-past-horizon",
        "long-empty-range", "sample-cap", "huge-alpha-exponent", "huge-ratio-exponent",
        "bad-int-option", "long-horizon-option", "long-q-option", "long-samples-option",
        "long-bad-int-option", "long-set-file-fraction", "long-powers-fraction",
        "long-bad-range", "long-bad-alpha", "long-malformed-alpha", "long-malformed-ratio",
        "malformed-alpha-exponent", "long-lo-bad-hi"])
def test_bad_arguments_name_their_clause(capsys, monkeypatch, tmp_path, argv, clause):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "fraction.set").write_text("1/" + "1" * 5000 + "\n")
    start = time.perf_counter()
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse refuses its own options, after a usage line
        code = exc.code
        err = capsys.readouterr().err
        assert err.startswith(f"usage: addcomp {argv[0]} ")
        assert err.endswith(f"\naddcomp {argv[0]}: error: {clause}\n")
    else:
        err = capsys.readouterr().err
        assert err == f"error: {clause}\n"
    assert time.perf_counter() - start < 1
    assert code == 2
    assert len(err.encode()) <= 500


NINES = "9" * 999  # below int()'s digit limit, far past what a message shows


@pytest.mark.parametrize("argv, clause", [
    (["thin", "powers:2", "--q", "-" + NINES], "q >= 1: got q=about -10^999"),
    (["oracle", "powers:2", "--m", "1", "--n", "1", "--x1", "5", "--x2", "-" + NINES],
     "--x2 about -10^999 below --x1 5"),
    (["density", "long.set"], "long.set:2: elements must be positive, got about -10^999"),
    (["gap", "powers:-" + NINES, "--range", "1..10", "--horizon", "10"],
     "powers base must be an integer >= 2, got about -10^999"),
], ids=["q", "x2", "set-file-element", "powers-base"])
def test_numbers_past_the_echo_limit_show_their_power_of_ten(capsys, monkeypatch, tmp_path,
                                                            argv, clause):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "long.set").write_text(f"3\n-{NINES}\n")
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err == f"error: {clause}\n"
    assert len(err.encode()) <= 200


#: Every numeric argument of every command, "{}" where the value goes, and the
#: kind the value is read as; "V.set" is a set file whose second line is the value.
_NUMBER_SLOTS = {
    "build-powers": (["build", "powers:{}", "--horizon", "1024"], int),
    "build-scale": (["build", "geometric:c={},alpha=2", "--horizon", "1024"], Fraction),
    "build-ratio": (["build", "geometric:c=1,alpha={}", "--horizon", "1024"], Fraction),
    "build-horizon": (["build", "powers:2", "--horizon", "{}"], int),
    "build-alpha": (["build", "powers:2", "--horizon", "1024", "--alpha", "{}"], Fraction),
    "verify-horizon": (["verify", "powers:2", "B.set", "--range", "1..10", "--horizon", "{}"], int),
    "verify-lo": (["verify", "powers:2", "B.set", "--range", "{}..10"], int),
    "verify-hi": (["verify", "powers:2", "B.set", "--range", "1..{}"], int),
    "verify-powers": (["verify", "powers:{}", "B.set", "--range", "1..10"], int),
    "verify-b-file": (["verify", "powers:2", "V.set", "--range", "1..10"], int),
    "thin-horizon": (["thin", "powers:2", "--q", "4", "--horizon", "{}"], int),
    "thin-q": (["thin", "powers:2", "--q", "{}"], int),
    "thin-powers": (["thin", "powers:{}", "--q", "4"], int),
    "thin-m": (["thin", "powers:2", "--m", "{}", "--n", "8", "--x1", "4", "--x2", "16",
                "--b-file", "B.set"], int),
    "thin-n": (["thin", "powers:2", "--m", "8", "--n", "{}", "--x1", "4", "--x2", "16",
                "--b-file", "B.set"], int),
    "thin-x1": (["thin", "powers:2", "--m", "8", "--n", "8", "--x1", "{}", "--x2", "16",
                 "--b-file", "B.set"], int),
    "thin-x2": (["thin", "powers:2", "--m", "8", "--n", "8", "--x1", "4", "--x2", "{}",
                 "--b-file", "B.set"], int),
    "thin-b-file": (["thin", "powers:2", "--m", "8", "--n", "8", "--x1", "4", "--x2", "16",
                     "--b-file", "V.set"], int),
    "density-horizon": (["density", "powers:2", "--horizon", "{}"], int),
    "density-samples": (["density", "powers:2", "--horizon", "64", "--samples", "{}"], int),
    "density-set-file": (["density", "V.set"], int),
    "gap-horizon": (["gap", "powers:2", "--range", "1..10", "--horizon", "{}"], int),
    "gap-lo": (["gap", "powers:2", "--range", "{}..10"], int),
    "gap-hi": (["gap", "powers:2", "--range", "1..{}"], int),
    "gap-scale": (["gap", "geometric:c={},alpha=2", "--range", "1..10", "--horizon", "10"],
                  Fraction),
    "oracle-horizon": (["oracle", "powers:2", "--m", "8", "--n", "8", "--x1", "4", "--x2", "16",
                        "--horizon", "{}"], int),
    "oracle-m": (["oracle", "powers:2", "--m", "{}", "--n", "8", "--x1", "4", "--x2", "16"], int),
    "oracle-n": (["oracle", "powers:2", "--m", "8", "--n", "{}", "--x1", "4", "--x2", "16"], int),
    "oracle-x1": (["oracle", "powers:2", "--m", "8", "--n", "8", "--x1", "{}", "--x2", "16"], int),
    "oracle-x2": (["oracle", "powers:2", "--m", "8", "--n", "8", "--x1", "4", "--x2", "{}"], int),
    "oracle-b-file": (["oracle", "powers:2", "--m", "8", "--n", "8", "--b-file", "V.set"], int),
}


def _refused_values(rng: random.Random, kind) -> list[str]:
    """Number texts that no slot of the kind may read: too long, malformed or unbounded."""
    values = ["1/0", "1e999999999", "-2E+100001", "1e-" + "9" * 4500, "1/0e5"]
    for mark in ("", "+", "-", " ", "_", "x", "e", "/", "."):
        digits = "".join(rng.choice("0123456789") for _ in range(rng.randint(4302, 5000)))
        digits = rng.choice("123456789") + digits[1:]
        if mark in "+-":
            values.append(mark + digits)
        elif mark == " ":
            values.append(f" {digits} ")
        else:
            # Fraction reads the parts around "/" or "." apart, so one alone passes the limit
            at = rng.randint(1, len(digits) - 4301 if mark in "/." else len(digits) - 1)
            values.append(digits[:at] + mark + digits[at:])
    if kind is int:
        values += ["1.5", "2e3", "0x10"]
    return values


@pytest.mark.parametrize("slot", list(_NUMBER_SLOTS))
def test_every_numeric_argument_refuses_bad_values(capsys, monkeypatch, tmp_path, slot):
    # exit 2, a short stderr and a quick end, for a value read on the command line or in a file
    monkeypatch.chdir(tmp_path)
    (tmp_path / "B.set").write_text("5\n6\n7\n")
    template, kind = _NUMBER_SLOTS[slot]
    rng = random.Random(f"numbers:{slot}")
    for value in _refused_values(rng, kind):
        (tmp_path / "V.set").write_text(f"3\n{value}\n")
        argv = [arg.replace("{}", value) for arg in template]
        start = time.perf_counter()
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse refuses its own options
            code = exc.code
        err = capsys.readouterr().err
        assert time.perf_counter() - start < 1, (slot, value[:80])
        assert code == 2, (slot, value[:80], err)
        assert len(err.encode()) <= 500, (slot, value[:80], err)


@pytest.mark.parametrize("line, why", [
    ("x{0}", "not an integer: 'x{0}'"),
    ("{}" + "1" * 5000, f"not an integer: {'{}' + '1' * 62!r} (first 64 of 5002 characters)"),
    ("1" * 5000, "integer too long to read (5000 digits)"),
], ids=["short", "long-bad", "long"])
def test_set_file_path_with_braces_is_named_as_it_is(capsys, tmp_path, line, why):
    path = tmp_path / "{}{0}{name}.set"
    path.write_text(f"1\n{line}\n")
    assert main(["density", str(path)]) == 2
    assert capsys.readouterr().err == f"error: {path}:2: {why}\n"


def test_set_file_line_too_long_to_read(tmp_path, capsys):
    # int() refuses 5000 digits for its digit limit: named by the count, not echoed
    path = tmp_path / "long.set"
    path.write_text("1" * 5000 + "\n")
    assert main(["density", str(path)]) == 2
    assert capsys.readouterr().err == f"error: {path}:1: integer too long to read (5000 digits)\n"


def test_gap_primes_output_is_pinned(capsys):
    # the sieve's set, seen through gap: only 2 and 5 are no prime plus non-prime
    assert main(["gap", "primes", "--range", "1..100000", "--horizon", "100000"]) == 1
    assert capsys.readouterr().out == (
        "missing 2 point(s): 2 5\n"
        "within (1, 100000] this is exact (sums from beyond 100000 cannot land here); "
        "it says nothing about larger targets\n"
    )


def test_gap_exit_codes(capsys):
    evens_h = 200
    assert main(["gap", "composites", "--range", "10..2000", "--horizon", "2000"]) == 0
    code = main(["gap", "powers:2", "--range", "2..200", "--horizon", str(evens_h)])
    assert code == 1
    assert "missing" in capsys.readouterr().out


def test_oracle_command(tmp_path, capsys):
    report_path = tmp_path / "o.json"
    code = main(
        ["oracle", "powers:2", "--horizon", "32", "--m", "8", "--n", "8",
         "--x1", "4", "--x2", "16", "--report", str(report_path)]
    )
    assert code == 0
    payload = json.loads(report_path.read_text())
    assert payload["optimal_size"] <= payload["greedy_size"]
    assert payload["greedy_matches_optimal"] == (payload["optimal_size"] == payload["greedy_size"])


@pytest.mark.parametrize("window", [[], ["--x1", "4"]], ids=["none", "x1-only"])
def test_oracle_names_the_missing_window(capsys, window):
    # checked before A is generated, whose default horizon --x2 is missing too
    assert main(["oracle", "powers:2", "--m", "8", "--n", "8", *window]) == 2
    assert capsys.readouterr().err == "error: provide --b-file or both --x1 and --x2\n"


@pytest.mark.parametrize("horizon", [["--horizon", "100"], []], ids=["horizon", "default"])
def test_oracle_rejects_x2_below_x1(capsys, horizon):
    # checked before A is generated, as --range is; an empty window stays a NoCover
    argv = ["oracle", "powers:2", *horizon, "--m", "8", "--n", "8", "--x1", "16"]
    assert main([*argv, "--x2", "4"]) == 2
    assert capsys.readouterr().err == "error: --x2 4 below --x1 16\n"
    assert main([*argv, "--x2", "16"]) == 1


@pytest.mark.parametrize("params, key", [
    ("c=1,alpha=2,beta=3", "beta"),
    ("c=1,alpha=2,", ""),
    ("c=1,alpha=2,gamma", "gamma"),
    ("c=1,alpha=2,c=5", "c"),
], ids=["unknown", "empty", "bare", "repeated"])
def test_geometric_spec_rejects_bad_keys(capsys, params, key):
    assert main(["build", f"geometric:{params}", "--horizon", "1000"]) == 2
    assert capsys.readouterr().err == (
        f"error: geometric takes exactly c and alpha, once each; got {key!r}\n")


def test_oracle_rejects_horizon_below_x2(capsys):
    # membership in (8, 16] is unknown at horizon 8, so 16 must not become a candidate
    code = main(["oracle", "powers:2", "--horizon", "8", "--m", "8", "--n", "8",
                 "--x1", "4", "--x2", "16"])
    assert code == 2
    assert "hi=16 beyond horizon 8" in capsys.readouterr().err


@pytest.mark.parametrize("n", ["0", "-1"])
def test_oracle_rejects_n_below_one(capsys, n):
    code = main(["oracle", "powers:2", "--horizon", "16", "--m", "8", "--n", n,
                 "--x1", "4", "--x2", "16"])
    assert code == 2
    assert "n >= 1" in capsys.readouterr().err


def test_oracle_rejects_a_cut_off_below_the_targets(capsys):
    # A's horizon defaults to --x2 = 6, so the square 9 in (8, 11] would be unknown
    args = ["oracle", "squares", "--m", "8", "--n", "3", "--x1", "1", "--x2", "6"]
    assert main(args) == 2
    assert "horizon >= m + n: horizon 6 < 11" in capsys.readouterr().err
    assert main(args + ["--horizon", "11"]) == 0
    assert capsys.readouterr().out.startswith("optimal cover size 3: 2 5 6\n")


def test_oracle_rejects_b_meeting_a(tmp_path, capsys):
    b_file = tmp_path / "B.set"
    report = tmp_path / "o.json"
    write_set_file(b_file, range(5, 17))  # holds the powers 8 and 16
    code = main(["oracle", "powers:2", "--horizon", "32", "--m", "8", "--n", "8",
                 "--b-file", str(b_file), "--report", str(report)])
    assert code == 2
    assert "B n A = empty" in capsys.readouterr().err
    assert not report.exists()


@pytest.mark.parametrize("argv, b_top", [
    # B's horizon lies below A's, then above it
    (["thin", "powers:2", "--m", "8", "--n", "8", "--x1", "4", "--x2", "16",
      "--horizon", "32"], 16),
    (["oracle", "powers:2", "--m", "8", "--n", "8", "--horizon", "16"], 39),
], ids=["thin", "oracle"])
def test_shared_point_named_without_membership_tests(tmp_path, capsys, monkeypatch, argv, b_top):
    # a membership test per element of B costs O(|B| * horizon) on a big B file
    b_file = tmp_path / "B.set"
    write_set_file(b_file, range(5, b_top + 1))  # meets A at 8 first
    monkeypatch.setattr(NatSet, "__contains__", lambda self, x: pytest.fail("x in NatSet"))
    assert main([*argv, "--b-file", str(b_file)]) == 2
    assert "error: B n A = empty: 8 is in both" in capsys.readouterr().err


@pytest.mark.parametrize("m", ["-1", "-5"])
def test_oracle_rejects_negative_m(capsys, m):
    code = main(["oracle", "powers:2", "--horizon", "32", "--m", m, "--n", "8",
                 "--x1", "4", "--x2", "16"])
    assert code == 2
    assert "m >= 0" in capsys.readouterr().err


def test_oracle_too_large_exits_2(tmp_path):
    assert main(["oracle", "powers:2", "--horizon", "256", "--m", "32", "--n", "16",
                 "--x1", "16", "--x2", "64"]) == 2


def test_module_entry_point(tmp_path):
    out = tmp_path / "B.set"
    proc = subprocess.run(
        [sys.executable, "-m", "addcomp", "build", "powers:2", "--horizon", "4096",
         "--out", str(out)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "coverage" in proc.stdout
    assert out.exists()
