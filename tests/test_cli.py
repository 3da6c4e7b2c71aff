"""CLI surface: subcommands, exact JSON payloads, exit codes."""

import contextlib
import errno
import io
import json
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import haargap
from haargap import cli


def run_json(capsys, argv):
    code = cli.main(argv + ["--format", "json"])
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_bound_matches_expected_payload(capsys):
    code, payload = run_json(capsys, ["bound", "--n", "4", "--direction", "3,-1,-1,-1"])
    assert code == 0
    assert payload["command"] == "bound"
    results = payload["results"]
    assert results["thm14"] == "6"
    assert results["haar"] == "12"
    assert results["optim"] == "6"


def test_bound_with_horizon_constant(capsys):
    code, payload = run_json(
        capsys, ["bound", "--n", "3", "--direction", "2,-1,-1", "--K", "1/3"]
    )
    assert code == 0
    assert payload["results"]["dispersive_exponent"] == "1"


def test_spectrum_and_bound_build_the_spectrum_once(capsys, monkeypatch):
    import haargap.entropy as entropy

    built = []
    spectrum = entropy.lyapunov_spectrum
    for module in (cli, entropy):
        monkeypatch.setattr(module, "lyapunov_spectrum",
                            lambda rs, X: built.append(X) or spectrum(rs, X))
    for command in ("spectrum", "bound"):
        built.clear()
        code, _ = run_json(capsys, [command, "--n", "3", "--direction", "2,-1,-1", "--K", "1/3"])
        assert code == 0 and len(built) == 1, command


def test_haar_lp_sl3(capsys):
    code, payload = run_json(
        capsys, ["haar-lp", "--n", "3", "--lattice", "generic", "--beta", "1/2"]
    )
    assert code == 0
    assert payload["results"]["min_haar_weight"] == "1/4"
    assert payload["results"]["num_variables"] == 5
    assert payload["results"]["num_constraints"] == 3
    first = payload["results"]["constraints"][0]
    assert first["direction"] == "2,-1,-1"
    assert first["rhs"] == "3"
    assert first["coefficients"] == ["0", "3", "3", "0", "6"]


def test_haar_lp_inner_n6(capsys):
    code, payload = run_json(
        capsys, ["haar-lp", "--n", "6", "--lattice", "inner", "--beta", "1/2"]
    )
    assert code == 0
    assert payload["results"]["min_haar_weight"] == "1/6"


def test_haar_lp_repeatable_direction_override(capsys):
    code, payload = run_json(
        capsys,
        [
            "haar-lp", "--n", "3", "--beta", "1/2",
            "--direction=2,-1,-1", "--direction=-1,2,-1",
        ],
    )
    assert code == 0
    assert payload["results"]["num_constraints"] == 2
    assert payload["inputs"]["direction"] == ["2,-1,-1", "-1,2,-1"]


def test_haar_lp_rationals_never_serialized_as_floats(capsys):
    _, payload = run_json(
        capsys, ["haar-lp", "--n", "4", "--lattice", "generic", "--beta", "11/20"]
    )
    text = json.dumps(payload["results"]["vertex"]) + json.dumps(
        payload["results"]["constraints"]
    )
    assert "." not in text  # "p/q" strings only
    assert payload["results"]["min_haar_weight"] == "1/10"


def test_json_round_trip_recompute(capsys):
    args = ["bound", "--n", "4", "--direction", "3,-1,-1,-1", "--K", "1/4"]
    code, payload = run_json(capsys, args)
    assert code == 0
    rebuilt = [
        "bound",
        "--n", str(payload["inputs"]["n"]),
        "--direction", payload["inputs"]["direction"],
        "--K", payload["inputs"]["K"],
    ]
    code2, payload2 = run_json(capsys, rebuilt)
    assert code2 == 0
    assert payload2 == payload


def test_json_round_trip_haar_lp(capsys):
    args = ["haar-lp", "--n", "4", "--lattice", "generic", "--beta", "11/20"]
    code, payload = run_json(capsys, args)
    assert code == 0
    inp = payload["inputs"]
    rebuilt = [
        "haar-lp",
        "--n", str(inp["n"]),
        "--lattice", inp["lattice"],
        "--beta", inp["beta"],
        "--bound-mode", inp["bound_mode"],
    ]
    code2, payload2 = run_json(capsys, rebuilt)
    assert code2 == 0
    assert payload2 == payload


def test_spectrum_payload(capsys):
    code, payload = run_json(
        capsys, ["spectrum", "--n", "3", "--direction", "2,-1,-1", "--K", "1/3"]
    )
    assert code == 0
    results = payload["results"]
    assert results["values"] == ["0", "3", "3"]
    assert results["chi_max"] == "3"
    assert results["threshold"] == "3/2"
    assert results["J0"] == 1


def test_roots_payload(capsys):
    code, payload = run_json(capsys, ["roots", "--n", "3", "--direction", "2,-1,-1"])
    assert code == 0
    results = payload["results"]
    assert results["num_roots"] == 6
    assert results["num_positive"] == 3
    assert results["weyl_orbit_size"] == 3
    assert results["is_regular"] is False


def test_roots_orbit_size_of_regular_direction_n10(capsys):
    # 10! orbit elements: the size must come without listing them
    code, payload = run_json(
        capsys, ["roots", "--n", "10", "--direction=9,7,5,3,1,-1,-3,-5,-7,-9"]
    )
    assert code == 0
    assert payload["results"]["weyl_orbit_size"] == 3628800
    assert payload["results"]["is_regular"] is True


def test_python_dash_m_runs_the_cli():
    src = str(Path(haargap.__file__).resolve().parents[1])
    for module in ("haargap", "haargap.cli"):
        proc = subprocess.run(
            [sys.executable, "-m", module, "roots", "--n", "3"],
            capture_output=True, text=True, timeout=120, env=dict(os.environ, PYTHONPATH=src),
        )
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout)["results"]["num_roots"] == 6, module


FLOAT_NAMES = (
    "TOLERANCES", "CotlarCheck", "MatrixFamily", "OscillatoryDecay", "OscillatoryProblem",
    "cotlar_bound_check", "orthogonal_projector_family", "oscillatory_decay",
    "run_validation_suite", "smooth_bump",
)
# an unknown name, and the mask-based support helpers kept only in tests/util.py
UNEXPORTED_NAMES = (
    "no_such_name", "SupportSet", "closure_of", "component_entropy_cap", "is_admissible",
    "make_support",
)


def run_fresh_python(code):
    """Run code in a new interpreter with haargap importable; return its stdout lines."""
    src = str(Path(haargap.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, timeout=120, env=dict(os.environ, PYTHONPATH=src),
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


def test_exact_commands_never_import_numpy():
    runs = [
        ["roots", "--n", "4"],
        ["spectrum", "--n", "4", "--direction", "3,-1,-1,-1"],
        ["bound", "--n", "4", "--direction", "3,-1,-1,-1"],
        ["supports", "--n", "5"],
        ["haar-lp", "--n", "4", "--beta", "1/2"],
        ["haar-lp", "--n", "4", "--beta", "1/2", "--direction", "3,-1,-1,-1"],
        ["report"],
        ["validate", "--seed", "0"],
    ]
    code = (
        "import contextlib, io, sys\n"
        "from haargap import cli\n"
        f"for argv in {runs!r}:\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        status = cli.main(argv)\n"
        "    print(argv[0], status, 'numpy' in sys.modules,\n"
        "          'concurrent.futures' in sys.modules)\n"
    )
    loaded = [line.split() for line in run_fresh_python(code)]
    expected = [[argv[0], "0", *[str(argv[0] == "validate")] * 2] for argv in runs]
    assert loaded == expected


def test_float_names_resolve_on_first_access():
    code = (
        "import sys\n"
        "import haargap\n"
        "print('numpy' in sys.modules)\n"
        "from haargap import cotlar_stein\n"
        f"for name in {FLOAT_NAMES!r}:\n"
        "    namespace = {}\n"
        "    exec(f'from haargap import {name} as imported', namespace)\n"
        "    target = getattr(cotlar_stein, name)\n"
        "    print(name, getattr(haargap, name) is target, namespace['imported'] is target,\n"
        "          name in dir(haargap))\n"
        f"for name in {UNEXPORTED_NAMES!r}:\n"
        "    try:\n"
        "        getattr(haargap, name)\n"
        "    except AttributeError:\n"
        "        print('AttributeError', name, name in dir(haargap))\n"
    )
    lines = run_fresh_python(code)
    k = 1 + len(FLOAT_NAMES)
    assert lines[0] == "False"
    assert lines[1:k] == [f"{name} True True True" for name in FLOAT_NAMES]
    assert lines[k:] == [f"AttributeError {name} False" for name in UNEXPORTED_NAMES]


def test_supports_payload(capsys):
    code, payload = run_json(capsys, ["supports", "--n", "4", "--lattice", "generic"])
    assert code == 0
    assert payload["results"]["count"] == 15
    code, payload = run_json(capsys, ["supports", "--n", "6", "--lattice", "inner"])
    assert payload["results"]["count"] == 27


@pytest.mark.parametrize("lattice, n, count", [("generic", 5, 52), ("inner", 6, 27)])
def test_supports_build_no_root_system(capsys, monkeypatch, lattice, n, count):
    # the walks read n alone, so neither the command nor lattice_supports
    # builds the root system
    from haargap.rigidity import lattice_supports
    from haargap.roots import RootSystem

    built, init = [], RootSystem.__init__
    monkeypatch.setattr(RootSystem, "__init__",
                        lambda self, n: built.append(n) or init(self, n))
    assert len(list(lattice_supports(n, lattice))) == count
    code, payload = run_json(capsys, ["supports", "--n", str(n), "--lattice", lattice])
    assert (code, payload["results"]["count"]) == (0, count)
    assert built == []
    cli.main(["roots", "--n", str(n)])  # the counter does see a build
    assert built == [n]


def test_invalid_direction_exit_code_and_trace_message(capsys):
    code = cli.main(["bound", "--n", "3", "--direction", "1,1,1"])
    assert code == 2
    err = capsys.readouterr().err
    assert "trace 3" in err
    # a direction of another n, refused by the command that reads it
    assert cli.main(["roots", "--n", "3", "--direction", "1,-1,0,0"]) == 2
    assert "direction has 4 coordinates, expected 3" in capsys.readouterr().err
    assert cli.main(["haar-lp", "--n", "3", "--beta", "1/2", "--direction=1,-1"]) == 2
    assert "test direction has n=2" in capsys.readouterr().err
    # a 501-digit trace is quoted by its first digits and its length
    assert cli.main(["roots", "--n", "3", "--direction=1e500,0,0"]) == 2
    err = capsys.readouterr().err
    assert "got trace 100000000000000000000000... (501 characters)" in err
    assert len(err) < 400


def test_invalid_rational_exit_code(capsys):
    code = cli.main(["haar-lp", "--n", "3", "--beta", "half"])
    assert code == 2
    # an exponent that is not an integer is left for Fraction to refuse
    for beta in ("1e1.5", "1e"):
        assert cli.main(["haar-lp", "--n", "3", "--beta", beta]) == 2
        assert "cannot parse" in capsys.readouterr().err
    # one grammar on every Python: Fraction reads digit-group underscores from
    # 3.11 on and spaces around "/" from 3.12 on, and both are refused
    for argv in (["haar-lp", "--n", "3", "--beta", "1_0/20"],
                 ["haar-lp", "--n", "3", "--beta", "1 / 2"],
                 ["bound", "--n", "3", "--direction=2_0,-1_0,-1_0"]):
        assert cli.main(argv) == 2
        assert "cannot parse" in capsys.readouterr().err
    # well formed, but with more digits than int() reads: the message names
    # the limit and quotes only the start of the argument
    limit = sys.get_int_max_str_digits()
    for beta in ("1/" + "7" * (limit + 100), "0." + "0" * (limit + 100) + "1"):
        assert cli.main(["haar-lp", "--n", "3", "--beta", beta]) == 2
        err = capsys.readouterr().err
        assert f"a number in it has more than {limit} digits" in err
        assert f"({len(beta) + 2} characters)" in err and len(err) < 600


def test_capacity_exit_code(capsys):
    code = cli.main(["haar-lp", "--n", "7", "--lattice", "generic", "--beta", "1/2"])
    assert code == 3
    assert "capacity" in capsys.readouterr().err
    code = cli.main(["supports", "--n", "7", "--lattice", "generic"])
    assert code == 3
    # one past the root-system dimension limit
    n = "65"
    for argv in (["roots", "--n", n],
                 ["spectrum", "--n", n, "--direction", "1,0,-1"],
                 ["bound", "--n", n, "--direction", "1,0,-1"]):
        assert cli.main(argv) == 3
        assert "n <= 64" in capsys.readouterr().err


def test_huge_decimal_exponents_are_refused_at_once(capsys):
    # Fraction would expand each of these to 10**exponent before anything ran
    for argv in (["haar-lp", "--n", "3", "--beta", "1e-999999999"],
                 ["bound", "--n", "3", "--direction", "2,-1,-1", "--K", "1e999999999"],
                 ["bound", "--n", "3", "--direction=1e10000000,-1e10000000,0"]):
        start = time.perf_counter()
        assert cli.main(argv) == 2
        assert time.perf_counter() - start < 1
        assert "exponents are limited" in capsys.readouterr().err
    assert cli.parse_rational("1e4300") == 10**4300
    assert cli.parse_rational("-5e-4300") == Fraction(-5, 10**4300)


def test_unprintable_values_are_refused_before_any_work(capsys, monkeypatch):
    # 10**4300 has one digit more than the interpreter prints by default
    def no_work(*args, **kwargs):
        raise AssertionError("the command ran on an input it could not print")

    monkeypatch.setattr(cli, "build_lp", no_work)
    monkeypatch.setattr(cli, "build_type_a", no_work)
    for argv in (["haar-lp", "--n", "3", "--beta", "1e-4300"],
                 ["bound", "--n", "3", "--direction=1e4300,-1e4300,0"],
                 # at n = 1 there are no pairs, but the trace check prints the coordinate
                 ["roots", "--n", "1", "--direction=1e4300"],
                 ["bound", "--n", "1", "--direction=1e4300"],
                 ["spectrum", "--n", "3", "--direction", "2,-1,-1", "--K", "1e4300"],
                 ["bound", "--n", "3", "--direction", "2,-1,-1", "--K=-1e4300"],
                 ["haar-lp", "--n", "3", "--beta", "1/2", "--direction=2,-1,-1",
                  "--direction=1e4300,-1e4300,0"]):
        assert cli.main(argv) == 2
        err = capsys.readouterr().err
        assert "could not be printed" in err and "Exceeds the limit" not in err
    # each coordinate prints, but not the common denominator (6904 digits), a
    # sum of scaled differences (N*M, 6904 digits), the Haar entropy
    # 36e4299 or the proved floor 7/(2D) with D = 9e4299
    N, M, D = 2**9000, 5**6000, 9 * 10**4299
    for n, direction in ((4, f"--direction=1/{N},-1/{N},1/{M},-1/{M}"),
                         (4, f"--direction={N},-{N},1/{M},-1/{M}"),
                         (3, "--direction=9e4299,-9e4299,0"),
                         (4, f"--direction=2/{D},0,-1/{D},-1/{D}")):
        for argv in (["bound", "--n", str(n), direction],
                     ["haar-lp", "--n", str(n), "--beta", "1/2", direction]):
            assert cli.main(argv) == 2
            err = capsys.readouterr().err
            assert "could not be printed" in err and "Exceeds the limit" not in err


def test_printable_extremes_still_run(capsys):
    code, payload = run_json(capsys, ["haar-lp", "--n", "3", "--beta", "1e-4299"])
    assert code == 0
    assert payload["inputs"]["beta"] == f"1/{10**4299}"
    # a limit of 0 means no limit
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        code, payload = run_json(capsys, ["bound", "--n", "3", "--direction=1e4300,-1e4300,0"])
    finally:
        sys.set_int_max_str_digits(limit)
    assert code == 0
    assert payload["results"]["haar"] == "4" + "0" * 4300
    # just inside the limit: twice the common denominator (8e4299) and n(n - 1)
    # times the largest scaled coordinate (6e4299) have 4300 digits each
    A, B = 4 * 10**4299, 10**4299
    code, payload = run_json(capsys, ["bound", "--n", "4", f"--direction=1/{A},-1/{A},0,0"])
    assert code == 0
    assert payload["results"]["optim"] == f"3/{A}"
    code, payload = run_json(capsys, ["haar-lp", "--n", "4", "--beta", "1/2",
                                      f"--direction=1/{A},-1/{A},0,0"])
    assert code == 0
    assert payload["results"]["constraints"][0]["rhs"] == f"3/{A}"
    for argv in (["bound", "--n", "3", f"--direction={B},-{B},0"],
                 ["haar-lp", "--n", "3", "--beta", "1/2", f"--direction={B},-{B},0"]):
        code, payload = run_json(capsys, argv)
        assert code == 0


def test_unprintable_results_are_refused_with_the_cli_message(capsys, monkeypatch):
    # each argument prints, but a result does not: the threshold 1/(2K) and
    # K times each exponent, or beta*h(X) with a 4300-digit denominator, which
    # haar-lp prints before its simplex runs
    def no_simplex(model):
        raise AssertionError("the simplex ran on an LP whose right-hand side could not be printed")

    monkeypatch.setattr(cli, "solve_lp", no_simplex)
    X, beta = 3**9000, "0." + "9" * 4299
    for argv in (["bound", "--n", "3", "--direction", "2,-1,-1", "--K", "9e4299"],
                 ["spectrum", "--n", "3", "--direction", "2,-1,-1", "--K", "9e4299"],
                 ["haar-lp", "--n", "3", "--beta", beta, f"--direction={X},-{X},0"]):
        assert cli.main(argv) == 2
        err = capsys.readouterr().err
        assert "could not be printed" in err and "Exceeds the limit" not in err


def test_validate_negative_seed_is_invalid_input(capsys):
    # -1 is refused by the corpus generator, -2 by the single member's (seed + 1):
    # both run on the worker thread, whose exception reaches the CLI
    for seed in ("-1", "-2"):
        assert cli.main(["validate", "--seed", seed]) == 2
        assert capsys.readouterr().err == "invalid input: expected non-negative integer\n"


def test_beta_out_of_range_is_invalid_input(capsys):
    code = cli.main(["haar-lp", "--n", "3", "--beta", "3/2"])
    assert code == 2


def test_validate_passes_with_default_seed(capsys):
    code, payload = run_json(capsys, ["validate"])
    assert code == 0
    assert payload["results"]["all_passed"] is True
    assert payload["inputs"]["seed"] == 0


def test_validate_output_depends_on_argv_alone(capsys, monkeypatch):
    # HAARGAP_SEED once chose the default seed; the environment is now ignored
    monkeypatch.setenv("HAARGAP_SEED", "7")
    code = cli.main(["validate"])
    default = capsys.readouterr().out
    assert code == 0
    assert json.loads(default)["inputs"]["seed"] == 0
    assert cli.main(["validate", "--seed", "0"]) == 0
    assert capsys.readouterr().out == default


def test_validate_failure_maps_to_exit_4(capsys, monkeypatch):
    monkeypatch.setattr(
        cli,
        "run_validation_suite",
        lambda seed: {"seed": seed, "checks": [{"name": "stub", "passed": False}], "all_passed": False},
    )
    code = cli.main(["validate"])
    assert code == 4


def test_report_table_and_exit_code(capsys):
    code = cli.main(["report", "--format", "table"])
    out = capsys.readouterr().out
    assert code == 0
    assert "| generic | 3 | 1/4 | 1/4 | yes |" in out
    assert "| inner | 12 | 1/12 | 1/12 | yes |" in out
    assert "NO" not in out


def test_report_json_flags_equality(capsys):
    code, payload = run_json(capsys, ["report"])
    assert code == 0
    rows = payload["results"]["rows"]
    assert len(rows) == 12
    assert all(r["equal"] for r in rows)
    assert payload["results"]["all_equal"] is True


def test_report_mismatch_exits_4(capsys, monkeypatch):
    import haargap.cli as climod

    monkeypatch.setattr(climod, "inner_weight_formula", lambda n: 0)
    code = cli.main(["report"])
    assert code == 4


def test_output_file_written(tmp_path, capsys):
    target = tmp_path / "bound.json"
    code = cli.main(
        ["bound", "--n", "3", "--direction", "2,-1,-1", "--output", str(target)]
    )
    assert code == 0
    payload = json.loads(target.read_text())
    assert payload["results"]["thm14"] == "3"
    assert capsys.readouterr().out == ""


def test_unwritable_output_is_invalid_input(tmp_path, capsys):
    for target in (tmp_path / "missing" / "x.json", tmp_path):
        code = cli.main(["roots", "--n", "3", "--output", str(target)])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("invalid input: cannot write --output")
        assert str(target) in lines[0]


def _cli_process(argv, unbuffered: bool, **kwargs) -> subprocess.Popen:
    """The CLI in a new process, its stdout buffered as by default or unbuffered."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = str(Path(haargap.__file__).resolve().parents[1])
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    return subprocess.Popen([sys.executable, "-m", "haargap", *argv],
                            stderr=subprocess.PIPE, env=env, **kwargs)


def _assert_stdout_refused(proc, code: int) -> None:
    with proc:
        stderr = proc.stderr.read().decode()
        assert proc.wait(timeout=60) == 2, stderr
        # one line: no traceback, no "Exception ignored" at exit
        assert len(stderr.splitlines()) == 1, stderr
        assert stderr.startswith("invalid input: cannot write standard output: ")
        assert os.strerror(code) in stderr


# unbuffered, a write cut short goes unreported and only the next one fails
@pytest.mark.parametrize("unbuffered", [False, True])
def test_stdout_closed_early_is_invalid_input(unbuffered):
    # the 112 KB payload outgrows the 64 KB pipe, so its write is cut short
    # when the pipe is closed after the first byte
    proc = _cli_process(["supports", "--n", "10", "--lattice", "inner"], unbuffered,
                        stdout=subprocess.PIPE)
    assert proc.stdout.read(1) == b"{"
    proc.stdout.close()
    _assert_stdout_refused(proc, errno.EPIPE)


# buffered, the payload is still in the buffer after the failed flush
@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("unbuffered", [False, True])
def test_stdout_on_a_full_device_is_invalid_input(unbuffered):
    with open("/dev/full", "w") as full:
        proc = _cli_process(["roots", "--n", "3"], unbuffered, stdout=full)
    _assert_stdout_refused(proc, errno.ENOSPC)


def test_missing_subcommand_is_invalid(capsys):
    assert cli.main([]) == 2


def test_version_flag(capsys):
    code = cli.main(["--version"])
    assert code == 0
    assert "haargap" in capsys.readouterr().out


def test_parser_keeps_no_state_between_calls(capsys):
    # one parser serves every main() call in a process: each run must print
    # and exit exactly as the same command run alone in a fresh interpreter
    commands = [
        ["haar-lp", "--n", "3", "--beta", "1/2", "--direction=2,-1,-1", "--direction=-1,2,-1"],
        ["haar-lp", "--n", "3", "--beta", "half"],
        ["--version"],
        ["haar-lp", "--n", "3", "--beta", "1/2", "--direction=-1,-1,2"],
    ]
    src = Path(haargap.__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(src))
    for argv in commands:
        code = cli.main(argv)
        captured = capsys.readouterr()
        alone = subprocess.run([sys.executable, "-m", "haargap", *argv], env=env,
                               capture_output=True, text=True, timeout=60)
        assert (code, captured.out, captured.err) == (alone.returncode, alone.stdout, alone.stderr)
    assert json.loads(captured.out)["inputs"]["direction"] == ["-1,-1,2"]


# Short arguments chosen to be hard on the parser and the bounds: decimal
# exponents at and past the limits, denominators whose lcm outgrows them,
# tokens that are not numbers.  A direction is tokens paired with their
# negations and padded with zeros, so one made of numbers has trace zero.
FUZZ_TOKENS = ["0", "1", "-1/3", "2.5", "1e4299", "9e4299", "1e-4299", "7e-4299", "1/7",
               "1e4300", "1e999999999", "1e-999999999", "nan", "inf", "1/0", "x", ""]
FUZZ_N = [-1, 0, 1, 2, 3, 4, 6, 7, 12, 13, 64, 65, 10**30]
FUZZ_BUDGET_S = 5


def _negated(token: str) -> str:
    return token[1:] if token.startswith("-") else "-" + token


@st.composite
def fuzz_argv(draw):
    command = draw(st.sampled_from(["bound", "spectrum", "roots", "supports"]))
    n = draw(st.sampled_from(FUZZ_N))
    argv = [command, "--n", str(n), "--format", draw(st.sampled_from(["json", "table"]))]
    if command == "supports":
        return argv + ["--lattice", draw(st.sampled_from(["generic", "inner"]))]
    for _ in range(draw(st.integers(0 if command == "roots" else 1, 4))):
        picks = draw(st.lists(st.sampled_from(FUZZ_TOKENS), max_size=4))
        coords = [c for t in picks for c in (t, _negated(t))]
        coords += ["0"] * max(0, min(n, 70) - len(coords))
        argv.append("--direction=" + ",".join(draw(st.permutations(coords))))
    if command != "roots" and draw(st.booleans()):
        argv += ["--K", draw(st.sampled_from(FUZZ_TOKENS))]
    return argv


@settings(max_examples=80, deadline=None)
@given(argv=fuzz_argv())
def test_short_adversarial_argv_exits_cleanly_within_budget(argv):
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    assert code in (0, 2, 3, 4)
    assert time.perf_counter() - start < FUZZ_BUDGET_S
    assert "Exceeds the limit" not in err.getvalue()
