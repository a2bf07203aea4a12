"""End-to-end tests of the command-line interface."""

import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

from p3ap import instances, io as p3ap_io
from p3ap.cli import build_parser, main
from p3ap.instances import gen_random_layered_monge


# The child process imports the same p3ap as the tests, also from a checkout.
PACKAGE_ROOT = str(Path(p3ap_io.__file__).resolve().parents[1])


def run_cli(args, cwd=None, text=True, **env):
    """The CLI as a subprocess in cwd, with env added to the environment."""
    env = {**os.environ, **env}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [PACKAGE_ROOT, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "p3ap.cli", *args],
        capture_output=True,
        text=text,
        env=env,
        cwd=cwd,
    )
    return proc.returncode, proc.stdout, proc.stderr


@pytest.fixture
def monge_file(tmp_path):
    path = tmp_path / "inst.txt"
    code = main(
        ["gen", "random-monge", "--n", "5", "--p", "2", "--seed", "3",
         "--output", str(path)]
    )
    assert code == 0
    return path


def test_gen_deterministic_bytes(tmp_path):
    a, b = tmp_path / "a.txt", tmp_path / "b.txt"
    for out in (a, b):
        assert main(["gen", "random-monge", "--n", "4", "--p", "2",
                     "--seed", "11", "--output", str(out)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_gen_requires_dimensions(capsys):
    assert main(["gen", "random-monge"]) == 2
    assert "error" in capsys.readouterr().err


def test_gen_rejects_bad_arguments_cleanly(capsys):
    assert main(["gen", "random-monge", "--n", "5", "--p", "2", "--seed", "-1"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ") and err.count("\n") == 1
    assert main(["gen", "random-monge", "--n", "3", "--p", "4"]) == 2
    assert capsys.readouterr().err == "error: need 1 <= p <= n, got n=3, p=4\n"


def test_gen_out_of_memory_exits_3(monkeypatch, capsys):
    # gen random-monge --n 100000 --p 2 would ask numpy for 74.5 GiB.
    def refuse(n, p, seed):
        raise MemoryError("Unable to allocate 74.5 GiB for an array with shape "
                          "(100000, 100000) and data type int64")

    monkeypatch.setattr(instances, "gen_random_layered_monge", refuse)
    assert main(["gen", "random-monge", "--n", "100000", "--p", "2"]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err == ("error: out of memory: Unable to allocate 74.5 GiB for an array "
                   "with shape (100000, 100000) and data type int64\n")


def test_gen_rejects_extra_blocks_past_int64_quickly(capsys):
    # The top tier a^(3 + extra) is refused before any tier is computed.
    t0 = time.perf_counter()
    assert main(["gen", "counterexample-ext", "--extra-blocks", "100000"]) == 2
    assert time.perf_counter() - t0 < 1.0
    assert capsys.readouterr() == (
        "", "error: top tier a^100003 for a=10 too large for int64 entries\n"
    )


# At a = 10, --extra-blocks 13 and 14 fail in the cost-range and cumulative
# sum checks; 15 is refused at the layer-2 spike 10 * a^18 before any tier
# is built.
EXTRA_BLOCKS_ERRORS = {
    13: "cost entries up to 1250012960000003033 in absolute value overflow int64 "
        "sums: need max(4, n*p) * max|c| < 2^63 (n=36, p=3)",
    14: "cumulative density sum 13144458884444447793 exceeds signed 64-bit range",
    15: "layer-2 spike 10*a^18 for a=10 too large for int64 entries",
}


@pytest.mark.parametrize("extra", sorted(EXTRA_BLOCKS_ERRORS))
def test_gen_extra_blocks_overflow_messages(extra, capsys):
    assert main(["gen", "counterexample-ext", "--extra-blocks", str(extra)]) == 2
    assert capsys.readouterr() == ("", f"error: {EXTRA_BLOCKS_ERRORS[extra]}\n")


# --a-scale 972000 passes the layer-2 spike check, 10 * a^3 < 2^63, so the
# constant a^a is refused, without computing a^a's 5.8 million digits; at
# 1000000 the spike is.
A_SCALE_ERRORS = {
    "counterexample --a-scale 972000": "a^a for a=972000 too large for 64-bit cost sums",
    "counterexample --a-scale 1000000":
        "layer-2 spike 10*a^3 for a=1000000 too large for int64 entries",
    "counterexample-ext --extra-blocks 1 --a-scale 15":
        "a^a for a=15 too large for 64-bit cost sums",
}


@pytest.mark.parametrize("args", sorted(A_SCALE_ERRORS))
def test_gen_a_scale_overflow_refused_quickly(args, capsys):
    t0 = time.perf_counter()
    assert main(["gen", *args.split()]) == 2
    assert time.perf_counter() - t0 < 1.0
    assert capsys.readouterr() == ("", f"error: {A_SCALE_ERRORS[args]}\n")


def test_solve_text_and_json(monge_file, capsys):
    assert main(["solve", "--input", str(monge_file), "--solver", "dp"]) == 0
    text = capsys.readouterr().out
    assert text.startswith("optimum ")
    optimum = int(text.splitlines()[0].split()[1])

    assert main(["solve", "--input", str(monge_file), "--solver", "brute",
                 "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["optimum"] == optimum
    assert len(payload["solution_rows"]) == 2


def test_solve_all_optima(monge_file, capsys):
    assert main(["solve", "--input", str(monge_file), "--solver", "dp",
                 "--all-optima", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["optima_count"] >= 1
    assert payload["unique_in_band"] in (True, False)


def test_solve_size_limit(tmp_path, capsys):
    inst = tmp_path / "big.txt"
    assert main(["gen", "random-monge", "--n", "12", "--p", "4",
                 "--seed", "0", "--output", str(inst)]) == 0
    assert main(["solve", "--input", inst.as_posix(), "--solver", "brute"]) == 3


def test_solve_refuses_oversized_dp_rows(tmp_path):
    # Row 3 of this p = 4 instance has 466 M candidate transitions.
    inst = tmp_path / "p4.txt"
    assert main(["gen", "random-monge", "--n", "8", "--p", "4",
                 "--seed", "1", "--output", str(inst)]) == 0
    for solver in ("auto", "dp"):
        code, out, err = run_cli(["solve", "--input", str(inst), "--solver", solver])
        assert code == 3
        assert out == ""
        assert err.startswith("error: DP size limit: row 3 of n=8, p=4 ")
        assert "Traceback" not in err


def test_solve_refuses_oversized_p5_rows(tmp_path):
    inst = tmp_path / "p5.txt"
    assert main(["gen", "random-monge", "--n", "7", "--p", "5",
                 "--seed", "1", "--output", str(inst)]) == 0
    code, out, err = run_cli(["solve", "--input", str(inst)])
    assert (code, out) == (3, "")
    assert err == (
        "error: DP size limit: row 3 of n=7, p=5 has 871290 incoming states x "
        "2520 placements = 2195650800 candidate transitions, more than 2^27\n"
    )


def test_check_and_blocks(monge_file, tmp_path, capsys):
    sol = tmp_path / "sol.txt"
    assert main(["solve", "--input", str(monge_file), "--output",
                 str(tmp_path / "rep.txt")]) == 0
    report = (tmp_path / "rep.txt").read_text().splitlines()
    optimum = int(report[0].split()[1])
    sol.write_text("\n".join(report[2:4]) + "\n")

    assert main(["check", "--input", str(monge_file), "--solution", str(sol),
                 "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["feasible"] and payload["cost"] == optimum
    assert payload["bandwidth"] <= 2

    assert main(["blocks", "--solution", str(sol)]) == 0
    blocks = json.loads(capsys.readouterr().out)
    assert blocks[0]["from"] == 1 and blocks[-1]["to"] == 5


@pytest.mark.parametrize("flag", [["--threads", "2"], ["--seed", "1"]])
def test_solve_rejects_removed_flags(monge_file, capsys, flag):
    with pytest.raises(SystemExit) as exc:
        main(["solve", "--input", str(monge_file), *flag])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


# Each command takes only the flags it reads; any other flag is refused.
MISPLACED_FLAGS = [
    ["gen", "counterexample", "--seed", "3"],
    ["gen", "random-monge", "--n", "4", "--p", "2", "--a-scale", "12"],
    ["gen", "embed-pp3ap", "--input", "{inst}", "--nonneg-variant"],
    ["gen", "embed-p3ap", "--input", "{inst}", "--n", "4"],
    ["gen", "counterexample-ext", "--p", "2"],
    ["blocks", "--solution", "{sol}", "--format", "json"],
    ["blocks", "--input", "{sol}"],
]


@pytest.mark.parametrize("args", MISPLACED_FLAGS, ids=" ".join)
def test_flags_a_command_does_not_read_are_refused(args, monge_file, tmp_path, capsys):
    sol = tmp_path / "sol.txt"
    sol.write_text("1 2 3 4 5\n2 3 4 5 1\n")
    out = tmp_path / "out.txt"
    argv = [a.format(inst=monge_file, sol=sol) for a in args] + ["--output", str(out)]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err
    assert not out.exists()


# The flags each command reads, with a value to pass; every gen generator
# also reads --output and --format.
FLAG_VALUES = {"--n": ["4"], "--p": ["2"], "--seed": ["3"], "--input": ["in.txt"],
               "--nonneg-variant": [], "--a-scale": ["12"], "--extra-blocks": ["1"],
               "--output": ["out.txt"], "--format": ["json"], "--solution": ["sol.txt"]}
COMMAND_FLAGS = {
    "gen random-monge": {"--n", "--p", "--seed"},
    "gen embed-p3ap": {"--input", "--nonneg-variant"},
    "gen embed-pp3ap": {"--input"},
    "gen counterexample": {"--a-scale"},
    "gen counterexample-ext": {"--extra-blocks", "--a-scale"},
    "blocks": {"--solution", "--output"},
}


@pytest.mark.parametrize("command", sorted(COMMAND_FLAGS))
def test_each_command_takes_exactly_the_flags_it_reads(command, capsys):
    reads = COMMAND_FLAGS[command]
    if command.startswith("gen "):
        reads = reads | {"--output", "--format"}
    for flag, value in FLAG_VALUES.items():
        argv = [*command.split(), flag, *value]
        if flag in reads:
            build_parser().parse_args(argv)
        else:
            with pytest.raises(SystemExit) as exc:
                build_parser().parse_args(argv)
            assert exc.value.code == 2, argv
            assert "unrecognized arguments" in capsys.readouterr().err


def test_normalize_requires_layered_monge(tmp_path, capsys):
    inst = tmp_path / "eye.txt"
    inst.write_text("3 1\n1 0 0\n0 1 0\n0 0 1\n")
    sol = tmp_path / "sol.txt"
    sol.write_text("3 2 1\n")
    assert main(["normalize", "--input", str(inst), "--solution", str(sol)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: normalize requires a layered Monge instance\n"


def test_check_reads_the_solve_json_report(monge_file, tmp_path, capsys):
    report = tmp_path / "s.json"
    assert main(["solve", "--input", str(monge_file), "--format", "json",
                 "--output", str(report)]) == 0
    assert main(["check", "--input", str(monge_file), "--solution", str(report),
                 "--format", "json"]) == 0
    checked = json.loads(capsys.readouterr().out)
    assert checked["feasible"] is True
    assert checked["cost"] == json.loads(report.read_text())["optimum"]


def test_check_infeasible_exit_code(monge_file, tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("1 2 3 4 5\n1 2 3 4 5\n")
    assert main(["check", "--input", str(monge_file),
                 "--solution", str(bad)]) == 2


def test_normalize_round_trip(monge_file, tmp_path, capsys):
    sol = tmp_path / "wide.txt"
    sol.write_text("5 4 3 2 1\n4 5 1 3 2\n")
    out = tmp_path / "norm.txt"
    assert main(["normalize", "--input", str(monge_file),
                 "--solution", str(sol), "--output", str(out)]) == 0
    rows = p3ap_io.load_solution_rows(str(out))
    assert main(["check", "--input", str(monge_file),
                 "--solution", str(out)]) == 0
    payload = capsys.readouterr().out
    assert "feasible" in payload
    assert len(rows) == 2


def test_missing_input_file(capsys):
    assert main(["solve", "--input", "/nonexistent/inst.txt"]) == 2


def test_module_entry_point(tmp_path):
    code, out, err = run_cli(
        ["gen", "counterexample", "--format", "json"]
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["n"] == 10 and payload["p"] == 3


@pytest.mark.parametrize(
    "name, text",
    [
        ("huge-entry.txt", "2 1\n99999999999999999999 0\n0 0\n"),
        ("wide-layer.json", '{"n": 2, "p": 1, "layers": [[[0, 0, 0], [0, 0, 0]]]}'),
        ("empty.json", '{"n": 0, "p": 1, "layers": [[]]}'),
        ("no-layers.json", '{"n": 1, "p": 0, "layers": []}'),
        # Entries whose sums wrap in int64; once solved to -2^63.
        ("wraps.txt", "2 1\n4611686018427387904 0\n0 4611686018427387904\n"),
        # Lines beyond the header's n * p rows: a second layer, a third row.
        ("two-layers.txt", "2 1\n0 1\n1 0\n\n0 1\n1 0\n"),
        ("extra-row.txt", "2 1\n0 1\n1 0\n1 1\n"),
        # Not UTF-8 text.
        ("utf16.txt", b"\xff\xfe2\x001\x00"),
        # A header announcing 200000 rows of 200000 entries, 320 GB of int64.
        ("huge-header.txt", "200000 1\n0\n"),
        # All 100000 rows are there but short; once a 74.5 GiB allocation.
        ("short-rows.txt", "100000 1\n" + "0\n" * 100000),
        # "density" after the header is a bad row, not a format marker.
        ("density.txt", "2 1\ndensity\n\n1 2\n3 4\n"),
    ],
)
def test_unreadable_instance_exit_code(tmp_path, capsys, name, text):
    path = tmp_path / name
    if isinstance(text, bytes):
        path.write_bytes(text)
    else:
        path.write_text(text)
    assert main(["solve", "--input", str(path)]) == 2
    assert "cannot read instance" in capsys.readouterr().err


def test_solve_all_optima_limit_exit_code(tmp_path, capsys):
    path = tmp_path / "inst.txt"
    assert main(["gen", "random-monge", "--n", "1200", "--p", "2", "--seed", "3",
                 "--output", str(path)]) == 0
    assert main(["solve", "--input", str(path), "--solver", "dp", "--all-optima"]) == 3
    assert "too many to list" in capsys.readouterr().err


def test_unreadable_solution_and_unwritable_output(monge_file, tmp_path, capsys):
    bad = tmp_path / "sol.txt"
    bad.write_bytes(b"\xff\xfe1 2\n")
    assert main(["check", "--input", str(monge_file), "--solution", str(bad)]) == 2
    assert "cannot read solution" in capsys.readouterr().err
    missing = tmp_path / "no-such-dir" / "out.txt"
    for args in (["gen", "random-monge", "--n", "3", "--p", "1"],
                 ["solve", "--input", str(monge_file)]):
        assert main([*args, "--output", str(missing)]) == 2
        assert capsys.readouterr().err.startswith(f"error: cannot write {missing}: ")


def test_brute_all_optima_limit_exit_code(tmp_path, capsys):
    path = tmp_path / "zeros.txt"
    path.write_text("6 3\n" + "0 0 0 0 0 0\n" * 18)
    assert main(["solve", "--input", str(path), "--solver", "brute", "--all-optima"]) == 3
    assert "15321600 optimal rectangles: too many to list" in capsys.readouterr().err


def test_instances_are_read_as_utf8_whatever_the_locale(tmp_path):
    # Under LC_ALL=C without UTF-8 mode, the locale's encoding is ASCII.
    (tmp_path / "cafe.txt").write_bytes("# café\n2 1\n\n1 2\n3 4\n".encode())
    outs = []
    for env in ({}, {"LC_ALL": "C", "PYTHONUTF8": "0"}):
        code, out, err = run_cli(["solve", "--input", "cafe.txt"], tmp_path, text=False, **env)
        assert code == 0, err
        outs.append(re.sub(rb"wall_ms \S+", b"wall_ms <masked>", out))
    assert outs[0] == outs[1]
    assert outs[0].startswith(b"optimum 5\n")


def test_output_file_holds_the_bytes_that_stdout_gets(tmp_path):
    # A file name that is not UTF-8 reaches the provenance line as a lone
    # surrogate; the output file gets the byte back, as stdout does.
    name = os.fsdecode(b"x\xff.txt")
    (tmp_path / name).write_text("2 2\n\n0 1\n1 0\n\n1 0\n0 1\n")
    args = ["gen", "embed-p3ap", "--input", name]
    code, printed, _ = run_cli(args, tmp_path, text=False)
    assert code == 0
    code, out, err = run_cli([*args, "--output", "o.txt"], tmp_path, text=False)
    assert code == 0, err
    assert out == b""
    assert b"--input x\xff.txt" in printed
    assert (tmp_path / "o.txt").read_bytes() == printed
