"""Command-line interface: subcommands, exit codes, determinism."""

import hashlib
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from refinable.cli import run
from refinable.exactreal import QQ
from refinable.refinery import mask_construct
from refinable.splinecore import cascade_solve, fourier_product_f64

SRC = str(Path(__file__).resolve().parent.parent / "src")
COUNTER = {"field": {"n": 10, "k": 2}, "lambda": "t", "columns": ["1", "1/2*t"]}
MV = {"field": {"n": 10, "k": 2}, "lambda": "t",
      "columns": [["1", "0"], ["0", "1"], ["1/2*t", "0"], ["0", "1/2*t"]]}


@pytest.fixture()
def counter_file(tmp_path):
    path = tmp_path / "counter.json"
    path.write_text(json.dumps(COUNTER))
    return str(path)


def run_json(capsys, argv):
    code = run(argv)
    out = capsys.readouterr().out
    return code, json.loads(out) if out.strip().startswith("{") else out


def test_counterexample_exact(capsys):
    code, data = run_json(capsys, ["counterexample"])
    assert code == 0
    assert data["exact_match"] is True
    assert len(data["translations"]) == 10
    assert data["translations"][:3] == ["0", "1", "1/2*t"]


def test_check_accept_and_reject(capsys, counter_file):
    code, data = run_json(capsys, ["check", "--instance", counter_file])
    assert code == 0 and data["report"]["verdict"] == "refinable"

    code, data = run_json(capsys, ["check", "--field", "2,2", "--lambda", "t",
                                   "--columns", "1;1"])
    assert code == 1 and data["report"]["verdict"] == "not_refinable"
    assert data["report"]["witness"] is not None


def test_mask_roundtrip_verify(capsys, tmp_path, counter_file):
    mask_path = tmp_path / "mask.json"
    code = run(["mask", "--instance", counter_file, "--out", str(mask_path)])
    assert code == 0
    capsys.readouterr()
    code, data = run_json(capsys, ["check", "--instance", counter_file,
                                   "--verify-mask", str(mask_path)])
    assert code == 0 and data["mask_identity"] is True


def test_verify_mask_with_another_lambda_exits_1(capsys, tmp_path):
    # the identity was once re-multiplied with the instance's lambda only,
    # so a mask file naming lambda = 3 verified against lambda = 2
    inline = ["--field", "2,1", "--lambda", "2", "--columns", "1;1"]
    mask_path = tmp_path / "mask.json"
    assert run(["mask", *inline, "--out", str(mask_path)]) == 0
    data = json.loads(mask_path.read_text())
    data["mask"]["lambda"] = ["3"]
    mask_path.write_text(json.dumps(data))
    code, out = run_json(capsys, ["check", *inline, "--verify-mask", str(mask_path)])
    assert code == 1
    assert out["report"]["verdict"] == "refinable" and out["mask_identity"] is False


@pytest.mark.parametrize("change", [
    {"field": [10, 2]}, {"terms": "abc"}, {"lambda": 5},
    {"terms": [{"exponent": ["0"], "coefficient": "1"}] * 2},
    {"terms": [{"exponent": ["0"], "coefficient": "1/0"}]}, {"lambda": ["1/0"]},
])
def test_malformed_mask_exits_2(capsys, tmp_path, counter_file, change):
    # the first three shapes once raised TypeError, a traceback with exit 1
    # ("refuted"); a repeated exponent once kept only its last coefficient;
    # a zero denominator once raised ZeroDivisionError
    mask_path = tmp_path / "mask.json"
    assert run(["mask", "--instance", counter_file, "--out", str(mask_path)]) == 0
    data = json.loads(mask_path.read_text())
    data.get("mask", data).update(change)
    mask_path.write_text(json.dumps(data))
    capsys.readouterr()
    assert run(["check", "--instance", counter_file, "--verify-mask", str(mask_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


def test_lawton_exit_codes(capsys):
    code, data = run_json(capsys, ["lawton", "--p", "1", "--d", "0", "--m", "2"])
    assert code == 0 and data["result"]["quotient"] == ["1", "1"]
    assert run(["lawton", "--p", "1,0,1", "--d", "0", "--m", "2"]) == 1


def test_erdos_subcommand(capsys):
    code, data = run_json(capsys, ["erdos", "--lambda", "2", "--targets", "0",
                                   "--depth", "4", "--extra-n", "20"])
    assert code == 0
    assert data["g"] == 3 and data["c_default"] == "1/1440"
    assert data["verification"]["certified"] is True

    # inadmissible user constant is refused with a report
    code, data = run_json(capsys, ["erdos", "--lambda", "2", "--targets", "0",
                                   "--depth", "2", "--c", "1/4"])
    assert code == 1 and not all(data["admissibility"].values())

    # smaller admissible user constant works
    code, data = run_json(capsys, ["erdos", "--lambda", "2", "--targets", "0",
                                   "--depth", "2", "--c", "1/2000"])
    assert code == 0


def test_erdos_xi_decimal_is_correctly_rounded(capsys):
    # the coordinates of xi cancel to 0.00190636528059788780...; the
    # midpoint of a 64-bit ball of the coordinates printed "0"
    code, data = run_json(capsys, ["erdos", "--field", "2,2", "--lambda", "1+t",
                                   "--targets", "0", "--depth", "30"])
    assert code == 0
    assert data["certificate"]["xi_decimal"] == "0.0019063652805978877"


def test_erdos_dilation_too_close_to_one(capsys):
    # no g <= 10000 is admissible; exit 1 would read as "refuted"
    assert run(["erdos", "--lambda", "100001/100000", "--depth", "1"]) == 2
    assert "too close to 1" in capsys.readouterr().err


def test_cascade_csv(tmp_path, counter_file):
    out = tmp_path / "grid.csv"
    code = run(["cascade", "--instance", counter_file, "--grid", "256",
                "--iters", "12", "--format", "csv", "--out", str(out)])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0].startswith("# a=") and lines[1] == "x,f"
    assert len(lines) == 2 + 256


@pytest.mark.parametrize("argv", [
    ["check", "--instance"],
    ["decay", "--bspline", "0", "--m", "2", "--J", "5", "--instance"],
], ids=lambda argv: argv[0])
def test_csv_only_where_there_is_one(capsys, counter_file, argv):
    # only cascade has a CSV form; the others once printed an empty line
    assert run([*argv, counter_file, "--format", "csv"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == f"error: {argv[0]} has no csv form\n"


def test_ftprobe(capsys, counter_file):
    code, data = run_json(capsys, ["ftprobe", "--instance", counter_file,
                                   "--J", "40", "--points", "40"])
    assert code == 0
    assert data["max_abs_deviation"] <= 1e-8


def test_numeric_argument_errors_exit_2(capsys, tmp_path, counter_file):
    # exit 1 would read as "refuted"
    assert run(["cascade", "--instance", counter_file, "--grid", "1",
                "--out", str(tmp_path / "g.csv")]) == 2
    assert "grid_size must be >= 2" in capsys.readouterr().err
    for J in ("0", "-2"):
        assert run(["ftprobe", "--instance", counter_file, "--J", J]) == 2
        assert "J must be >= 1" in capsys.readouterr().err
    assert run(["ftprobe", "--instance", counter_file, "--points", "0"]) == 2
    assert "points must be >= 1" in capsys.readouterr().err
    for cmd in ("decay", "cascade"):
        # --m 0 is a dilation of 0, not a missing --m
        assert run([cmd, "--bspline", "1", "--m", "0"]) == 2
        assert "integer dilation must be >= 2" in capsys.readouterr().err
    for prec in ("0", "-3"):
        # wp *= 2 never leaves 0, so this once looped forever
        assert run(["decay", "--bspline", "0", "--m", "2", "--prec", prec]) == 2
        assert "prec must be >= 1" in capsys.readouterr().err
    for iters in ("0", "-1"):
        # zero iterations printed the start function with residual 0.0
        assert run(["cascade", "--bspline", "1", "--m", "2", "--iters", iters]) == 2
        assert "iters must be >= 1" in capsys.readouterr().err
    for c in ("0", "-1/100"):
        # a c <= 0 once sent the admissibility check into an endless loop
        assert run(["erdos", "--lambda", "2", "--depth", "1", f"--c={c}"]) == 2
        assert "c must be > 0" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["check", "--field", "2,2", "--lambda", "1/0", "--columns", "1"],
    ["check", "--field", "2,2", "--lambda", "t", "--columns", "1/0"],
    ["erdos", "--lambda", "2", "--targets", "1/0", "--depth", "2"],
    ["erdos", "--lambda", "2", "--targets", "0", "--depth", "2", "--c", "1/0"],
    ["lawton", "--p", "1/0,1", "--d", "1", "--m", "2"],
    ["decay", "--bspline", "1", "--m", "2", "--J", "0"],
    ["cascade", "--bspline", "-1", "--m", "2"],
    ["lawton", "--p", "1", "--d", "-3", "--m", "2"],
    ["check", "--instance", {**COUNTER, "columns": []}],
    ["check", "--instance", [1]],
    ["check", "--instance", {**COUNTER, "columns": "12"}],
    ["check", "--instance", {**COUNTER, "field": [10, 2]}],
    ["ftprobe", "--wmax", "nan", "--instance", COUNTER],
    ["ftprobe", "--wmax", "inf", "--instance", COUNTER],
    ["ftprobe", "--wmax", "-5", "--instance", COUNTER],
    ["ftprobe", "--tol", "nan", "--instance", COUNTER],
    ["ftprobe", "--tol=-1e-9", "--instance", COUNTER],
    ["factorize-check", "--tol", "nan", "--instance", COUNTER],
])
def test_degenerate_inputs_exit_2(capsys, tmp_path, argv):
    # a zero denominator, J < 1, a negative degree, a sampling range or
    # tolerance that is not a number >= 0 (--wmax nan once ended in an
    # OverflowError traceback, --tol nan in a failed check) and malformed
    # instance JSON (the last item, written to a file) are usage errors
    if not isinstance(argv[-1], str):
        path = tmp_path / "instance.json"
        path.write_text(json.dumps(argv[-1]))
        argv = [*argv[:-1], str(path)]
    assert run(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


def test_instance_field_is_read_like_a_mask_field(capsys, tmp_path):
    path = tmp_path / "instance.json"
    path.write_text(json.dumps({**COUNTER, "field": [10, 2]}))
    assert run(["check", "--instance", str(path)]) == 2
    err = capsys.readouterr().err
    assert err == "error: instance field must be an object with integers n and k\n"


def _fresh_run(argv: list[str], cwd: Path) -> tuple[int, str, bool, bool]:
    """``run(argv)`` in a new interpreter: the exit code, stdout, and
    whether numpy and ``refinable.splinecore`` were loaded afterwards."""
    code = ("import json, sys\n"
            "from refinable.cli import run\n"
            f"code = run({argv!r})\n"
            "loaded = [m in sys.modules for m in ('numpy', 'refinable.splinecore')]\n"
            "print(json.dumps([code, *loaded]))\n")
    done = subprocess.run([sys.executable, "-c", code], cwd=cwd, capture_output=True,
                          text=True, timeout=120, env=dict(os.environ, PYTHONPATH=SRC))
    assert done.returncode == 0, done.stderr
    out, _, last = done.stdout.rstrip("\n").rpartition("\n")
    code, numpy_loaded, floats_loaded = json.loads(last)
    return code, out, numpy_loaded, floats_loaded


@pytest.mark.parametrize("argv", [
    ["check", "--instance", "counter.json"],
    ["mask", "--instance", "counter.json"],
    ["mvcheck", "--instance", "mv.json"],
    ["lawton", "--p", "1", "--d", "0", "--m", "2"],
    ["erdos", "--lambda", "2", "--targets", "0", "--depth", "4"],
    ["decay", "--field", "2,1", "--lambda", "3", "--columns", "1;1", "--J", "20"],
    ["decay", "--bspline", "1", "--m", "2", "--J", "20"],
    ["counterexample"],
], ids=lambda argv: argv[0] + ("-bspline" if "--bspline" in argv else ""))
def test_exact_commands_load_no_numpy(tmp_path, argv):
    (tmp_path / "counter.json").write_text(json.dumps(COUNTER))
    (tmp_path / "mv.json").write_text(json.dumps(MV))
    code, out, numpy_loaded, floats_loaded = _fresh_run(argv, tmp_path)
    assert code == 0 and out.startswith("{")
    assert not numpy_loaded and not floats_loaded


def test_float_commands_import_numpy_on_demand(capsys, tmp_path, monkeypatch):
    # in a fresh process the float handlers import numpy and splinecore
    # themselves, and print the pinned values of test_numeric_output_golden
    # and what factorize-check prints in this process
    monkeypatch.chdir(tmp_path)
    Path("counter.json").write_text(json.dumps(COUNTER))
    argv = ["cascade", "--instance", "counter.json", "--grid", "256", "--iters", "12",
            "--format", "csv", "--out", "grid.csv"]
    code, _, numpy_loaded, _ = _fresh_run(argv, tmp_path)
    assert code == 0 and numpy_loaded
    assert hashlib.sha256(Path("grid.csv").read_bytes()).hexdigest() == \
        "22f59f5a7a3f5f79c16a3ec87575480cd580fb16d9e56fa284f4e61b9a7e3c2d"
    code, out, numpy_loaded, _ = _fresh_run(
        ["ftprobe", "--instance", "counter.json", "--J", "40", "--points", "40"], tmp_path)
    assert code == 0 and numpy_loaded
    assert repr(json.loads(out)["max_abs_deviation"]) == "2.0434424045405772e-16"
    argv = ["factorize-check", "--instance", "counter.json", "--grid", "1024",
            "--iters", "20"]
    assert run(argv) == 0
    assert _fresh_run(argv, tmp_path) == (0, capsys.readouterr().out.rstrip("\n"), True, True)


def test_numeric_output_golden(capsys, tmp_path, counter_file):
    # pinned values of the per-term loop kernels: the CSV and the deviation
    # are printed with repr, so any change in a float shows here
    out = tmp_path / "grid.csv"
    assert run(["cascade", "--instance", counter_file, "--grid", "256",
                "--iters", "12", "--format", "csv", "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == \
        "22f59f5a7a3f5f79c16a3ec87575480cd580fb16d9e56fa284f4e61b9a7e3c2d"
    code, data = run_json(capsys, ["ftprobe", "--instance", counter_file,
                                   "--J", "40", "--points", "40"])
    assert code == 0 and repr(data["max_abs_deviation"]) == "2.0434424045405772e-16"
    code, data = run_json(capsys, ["ftprobe", "--instance", counter_file])
    assert code == 0 and repr(data["max_abs_deviation"]) == "1.2749880984031409e-14"
    # a deviation can hide a changed bit: hash both kernels' arrays for an
    # integer-dilation accepted mask with 392 terms
    mask = mask_construct([QQ.rational(Fraction(v)) for v in ("1", "1/2", "3/4", "5/3", "7/5")],
                          QQ.rational(4))
    assert len(mask.H.terms) >= 100
    samples = cascade_solve(mask, grid_size=512, iters=12).samples
    assert hashlib.sha256(samples.tobytes()).hexdigest() == \
        "110d91a310053f9a348b09b4cc2263adaf60829b5f05eb3b3f55f508deff110b"
    prod = fourier_product_f64(mask, np.linspace(-60.0, 60.0, 97), 40)
    assert hashlib.sha256(prod.tobytes()).hexdigest() == \
        "8fa87f0b882a1436158acfe68e891072bc8870a143f0fd171a183fed0197fc40"


def test_decay_cli(capsys):
    code, data = run_json(capsys, ["decay", "--bspline", "0", "--m", "2",
                                   "--J", "30"])
    assert code == 0
    assert data["report"]["epsilon0_lower_bound"] > 0


def test_mvcheck_cli(capsys, tmp_path):
    path = tmp_path / "mv.json"
    path.write_text(json.dumps(MV))
    code, data = run_json(capsys, ["mvcheck", "--instance", str(path)])
    assert code == 0
    assert data["report"]["chains"]["cycles"] == [[0, 2], [1, 3]]


@pytest.mark.parametrize("argv", [
    ["--field", "2,2", "--lambda", "t", "--columns", "1;t"],
    ["--field", "2,1", "--lambda", "2", "--columns", "1/2;1"],
])
def test_mvcheck_one_row(capsys, argv):
    # s = 1 outside the integer delegation: H's exponents are scalars
    code, data = run_json(capsys, ["mvcheck", *argv])
    assert code == 0
    rep = data["report"]
    assert rep["verdict"] == "refinable" and rep["mask"]["s"] == 1
    assert rep["notes"] == ["3 slices agree with the s-variate mask"]
    assert all(len(t["exponent"]) == 1 for t in rep["mask"]["terms"])


@pytest.mark.parametrize("instance, code, digest", [
    (MV, 0, "8ebb0bb5c5caf48daf1cf20092adb2ba84ef62d1e4434b861ba702998d81c906"),
    ({**MV, "columns": MV["columns"][:3] + [["0", "1/7"]]}, 1,
     "0486efbeb19e02597c99410f2b894caf74575f14ed6eddb100a16db9d49a9586"),
])
def test_mvcheck_output_golden(capsys, tmp_path, monkeypatch, instance, code, digest):
    # the stdout of an accepted and a rejected s-variate check, byte for
    # byte; a relative path keeps the echoed configuration fixed
    monkeypatch.chdir(tmp_path)
    Path("mv.json").write_text(json.dumps(instance))
    assert run(["mvcheck", "--instance", "mv.json"]) == code
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_factorize_cli(capsys, counter_file):
    code, data = run_json(capsys, ["factorize-check", "--instance", counter_file,
                                   "--grid", "1024", "--iters", "20"])
    assert code == 0
    assert data["report"]["sup_rel_distance"] <= 1e-2


def test_usage_errors(capsys):
    assert run(["nonsense"]) == 2
    assert run(["check"]) == 2  # no instance given
    assert run(["mask", "--field", "4,2", "--lambda", "t", "--columns", "1"]) == 2


def test_byte_identical_output(capsys, counter_file):
    run(["check", "--instance", counter_file, "--seed", "7"])
    first = capsys.readouterr().out
    run(["check", "--instance", counter_file, "--seed", "7"])
    second = capsys.readouterr().out
    assert first == second

    run(["decay", "--bspline", "0", "--m", "2", "--J", "25", "--seed", "3"])
    first = capsys.readouterr().out
    run(["decay", "--bspline", "0", "--m", "2", "--J", "25", "--seed", "3"])
    second = capsys.readouterr().out
    assert first == second


def test_text_format(capsys, counter_file):
    code = run(["counterexample", "--format", "text"])
    out = capsys.readouterr().out
    assert code == 0
    assert "exact match: True" in out
