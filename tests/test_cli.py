import json
import math

import pytest

from stieltjes_spec.cli import main, parse_measure, thread_cap
from stieltjes_spec.errors import BadArgumentError, MeasureParseError
from stieltjes_spec.measure import Measure


def _read_table(path):
    meta, columns, rows = [], None, []
    for line in path.read_text().splitlines():
        if line.startswith("#"):
            meta.append(line)
        elif columns is None:
            columns = line.split(",")
        else:
            rows.append(line.split(","))
    return meta, columns, rows


def _stderr_error(capsys):
    err = capsys.readouterr().err.strip()
    return json.loads(err.splitlines()[-1])


# ---------------------------------------------------------------------------
# measure shorthand and file loading


def test_shorthand_literals():
    assert parse_measure("zero").is_zero
    assert parse_measure("lebesgue").eval(1.0) == 1.0
    mu = parse_measure("atom:0.5:-0.25")
    assert mu.atom_weight(0.5) == -0.25
    dens = parse_measure("density:[1,2]")
    assert abs(dens.eval(1.0) - 2.0) < 1e-15


def test_measure_file_roundtrip(tmp_path):
    mu = Measure.from_density(0.2, 0.7, (1.0, -2.0, 3.0)).plus(
        Measure.point(0.9, -0.125))
    f = tmp_path / "mu.json"
    f.write_text(mu.to_json())
    assert parse_measure(str(f)) == mu


def test_bad_literals_and_missing_file():
    for text in ("atom:0.5", "density:1,2", "density:[]", "/no/such/file.json"):
        with pytest.raises(MeasureParseError):
            parse_measure(text)


# ---------------------------------------------------------------------------
# solve


def test_solve_summary_zero(capsys):
    assert main(["solve", "--p", "zero", "--q", "zero", "--lambda", "0",
                 "--init", "1,0,0"]) == 0
    out = capsys.readouterr().out
    assert "y(1)=1 " in out
    assert "w(1)=0" in out


def test_solve_atom_jump_summary_and_rows(capsys, tmp_path):
    out_file = tmp_path / "solve.csv"
    assert main(["solve", "--p", "atom:0.5:1", "--q", "zero", "--lambda", "0",
                 "--init", "1,0,0", "--out", str(out_file)]) == 0
    assert "w(1)=0+1i" in capsys.readouterr().out
    meta, columns, rows = _read_table(out_file)
    assert meta[0] == "# stieltjes-spec 0.1.0"
    assert meta[1] == "# schema: solve-v1"
    sha = meta[2].split(": ")[1]
    assert len(sha) == 64 and all(c in "0123456789abcdef" for c in sha)
    assert "solver_tol=1e-09" in meta[3]
    assert columns == ["x", "re_y", "im_y", "re_yprime", "im_yprime",
                       "re_w", "im_w", "is_atom"]
    atom_rows = [r for r in rows if r[7] == "1"]
    assert len(atom_rows) == 2
    assert float(atom_rows[0][0]) == 0.5 and float(atom_rows[1][0]) == 0.5
    # pre and post rows straddle the unit jump in w
    assert abs(float(atom_rows[0][6])) < 1e-12
    assert abs(float(atom_rows[1][6]) - 1.0) < 1e-12


def test_file_and_literal_give_identical_bytes(tmp_path):
    f = tmp_path / "p.json"
    f.write_text(Measure.point(0.5, 1.0).to_json())
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["solve", "--p", "atom:0.5:1", "--lambda", "2",
                 "--out", str(a)]) == 0
    assert main(["solve", "--p", str(f), "--lambda", "2",
                 "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_malformed_measure_file_exits_2(capsys, tmp_path):
    f = tmp_path / "bad.json"
    f.write_text("not a measure {")
    assert main(["solve", "--p", str(f), "--lambda", "1"]) == 2
    err = _stderr_error(capsys)
    assert err["error"] == "MEASURE_PARSE"
    assert err["exit"] == 2


def test_atoms_one_ulp_apart_exit_2(capsys, tmp_path):
    # the refined mesh halves their cell into one of no width
    upper = math.nextafter(0.3, 1.0)
    f = tmp_path / "close.json"
    f.write_text(Measure.point(0.3, 1.0).plus(Measure.point(upper, 1.0)).to_json())
    assert main(["solve", "--p", str(f), "--lambda", "64"]) == 2
    err = _stderr_error(capsys)
    assert err["error"] == "BAD_ARGUMENT"
    assert err["message"].startswith("mesh edges must be strictly increasing")
    assert repr(upper) in err["message"]


@pytest.mark.parametrize("command", [
    ["solve", "--lambda", "1"],
    ["eig", "--bc", "1", "--n-min", "1", "--n-max", "1"],
])
def test_non_finite_measure_file_exits_2(capsys, tmp_path, command):
    f = tmp_path / "nan.json"
    f.write_text('{"atoms": [{"x": 0.5, "w": NaN}]}')
    assert main(command + ["--p", str(f)]) == 2
    err = _stderr_error(capsys)
    assert err["error"] == "MEASURE_FORMAT"
    assert err["exit"] == 2


def test_numerical_failure_exits_3(capsys):
    assert main(["solve", "--q", "density:[240]", "--lambda", "1"]) == 3
    err = _stderr_error(capsys)
    assert err["error"] == "NO_CONVERGENCE"


@pytest.mark.parametrize("command", [
    ["solve", "--lambda", "1", "--tol", "inf"],
    ["eig", "--bc", "1", "--n-min", "1", "--n-max", "1", "--c-pi", "nan"],
    ["eig", "--bc", "1", "--n-min", "1", "--n-max", "1", "--c-pi", "inf"],
    ["eig", "--bc", "1", "--n-min", "1", "--n-max", "1", "--c-pi", "0"],
])
def test_bad_settings_exit_2(capsys, command):
    assert main(command) == 2
    assert _stderr_error(capsys)["error"] == "BAD_ARGUMENT"


def test_unknown_flag_exits_2(capsys):
    assert main(["solve", "--lambda", "1", "--bogus"]) == 2
    assert _stderr_error(capsys)["error"] == "BAD_ARGUMENT"


# ---------------------------------------------------------------------------
# charfn


def test_charfn_scan_sign_changes(tmp_path):
    out_file = tmp_path / "scan.csv"
    assert main(["charfn", "--p", "zero", "--q", "zero", "--bc", "1",
                 "--lambda=-10:300", "--grid", "64",
                 "--out", str(out_file)]) == 0
    meta, columns, rows = _read_table(out_file)
    assert columns == ["lambda", "k", "re_delta", "im_delta", "y1", "z1"]
    lam = [float(r[0]) for r in rows]
    y1 = [float(r[4]) for r in rows]
    z1 = [float(r[5]) for r in rows]
    # first boundary condition: delta is purely imaginary on the real axis
    assert all(r[2] == "0.0" for r in rows)

    def brackets(vals):
        return [(lam[i], lam[i + 1]) for i in range(len(vals) - 1)
                if (vals[i] < 0) != (vals[i + 1] < 0)]

    root1 = (2.0 * math.pi) ** 3
    assert any(lo < root1 < hi for lo, hi in brackets(z1))
    # the second-condition root sits near 26.85, well below pi**3
    assert any(lo < 26.85 < hi for lo, hi in brackets(y1))


def test_charfn_rejects_complex_lambda(capsys):
    assert main(["charfn", "--bc", "1", "--lambda", "1+2j"]) == 2
    assert _stderr_error(capsys)["error"] == "BAD_ARGUMENT"


# ---------------------------------------------------------------------------
# eig


def test_eig_zero_potential_lattice(tmp_path):
    out_file = tmp_path / "eig.csv"
    assert main(["eig", "--p", "zero", "--q", "zero", "--bc", "1",
                 "--n-min", "-2", "--n-max", "2", "--out", str(out_file)]) == 0
    meta, columns, rows = _read_table(out_file)
    assert meta[1] == "# schema: eig-v1"
    assert len(rows) == 5
    for row, n in zip(rows, range(-2, 3)):
        assert int(row[1]) == n
        target = (2.0 * n * math.pi) ** 3
        tol = 1e-9 * max(1.0, abs(target))
        assert abs(float(row[2]) - target) < tol
        assert row[4] == "1" and row[5] == "1"


def test_eig_verify_count(capsys):
    assert main(["eig", "--p", "zero", "--q", "zero", "--bc", "1",
                 "--n-min", "-1", "--n-max", "1", "--verify-count"]) == 0
    out = capsys.readouterr().out
    assert "counts consistent" in out


# ---------------------------------------------------------------------------
# sens


def test_sens_lebesgue_formula_column(tmp_path):
    out_file = tmp_path / "sens.csv"
    assert main(["sens", "--p", "zero", "--q", "zero", "--bc", "1",
                 "--n-min", "1", "--n-max", "1", "--nu", "lebesgue",
                 "--channel", "p", "--out", str(out_file)]) == 0
    meta, columns, rows = _read_table(out_file)
    assert columns == ["xi", "n", "channel", "epsilon", "fd", "formula",
                       "abs_error"]
    assert len(rows) == 3
    for row in rows:
        assert abs(float(row[5]) - 1.0) < 1e-9


# ---------------------------------------------------------------------------
# lab


def test_lab_asym(capsys, tmp_path):
    out_file = tmp_path / "asym.csv"
    assert main(["lab", "asym", "--p", "zero", "--q", "lebesgue", "--bc", "1",
                 "--n-min", "5", "--n-max", "6", "--out", str(out_file)]) == 0
    assert "bounded: true" in capsys.readouterr().out
    meta, columns, rows = _read_table(out_file)
    assert meta[1] == "# schema: lab-asym-v1"
    assert columns == ["n", "lambda", "leading", "residual"]
    for row in rows:
        assert float(row[3]) == float(row[1]) - float(row[2])


def test_lab_weakstar(capsys, tmp_path):
    out_file = tmp_path / "ws.csv"
    assert main(["lab", "weakstar", "--family", "ramp", "--m", "10,100",
                 "--bc", "1", "--n-min", "1", "--out", str(out_file)]) == 0
    out = capsys.readouterr().out
    assert "verdict: true" in out
    _, columns, rows = _read_table(out_file)
    assert columns == ["m", "value", "error"]
    assert float(rows[1][2]) < float(rows[0][2])


def test_lab_weakstar_rejects_scale_family(capsys):
    assert main(["lab", "weakstar", "--family", "lebesgue"]) == 2
    assert _stderr_error(capsys)["error"] == "BAD_ARGUMENT"


def test_lab_solcont_gap(capsys, tmp_path):
    out_file = tmp_path / "sc.csv"
    assert main(["lab", "solcont", "--p", "atom:0.5:1", "--q", "zero",
                 "--family", "ramp-vs-atom", "--m", "10,100",
                 "--lambda", "0", "--channel", "p",
                 "--out", str(out_file)]) == 0
    _, columns, rows = _read_table(out_file)
    assert columns == ["size", "sup_y", "sup_yprime", "sup_w", "sup_all"]
    # w keeps the unit jump gap while y converges
    for row in rows:
        assert abs(float(row[3]) - 1.0) < 1e-9
    assert float(rows[1][1]) < float(rows[0][1])


@pytest.mark.parametrize("family", ["ramp", "ramp-vs-atom"])
def test_lab_solcont_ramp_families(family, capsys, tmp_path):
    out_file = tmp_path / "sc.csv"
    assert main(["lab", "solcont", "--p", "atom:0.5:1", "--q", "zero",
                 "--family", family, "--m", "10,100", "--lambda", "64",
                 "--out", str(out_file)]) == 0
    assert "verdict: true" in capsys.readouterr().out
    _, columns, rows = _read_table(out_file)
    assert len(rows) == 2


def test_lab_bounds_seeded(capsys, tmp_path):
    out_file = tmp_path / "bounds.csv"
    assert main(["lab", "bounds", "--lambda", "64,1000", "--seed", "7",
                 "--samples", "2", "--out", str(out_file)]) == 0
    assert "ok: true" in capsys.readouterr().out
    _, columns, rows = _read_table(out_file)
    assert len(rows) == 4
    assert all(row[5] == "0" for row in rows)


# ---------------------------------------------------------------------------
# determinism, format, environment


def test_json_output_is_deterministic(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    args = ["eig", "--p", "atom:0.4:0.3", "--q", "zero", "--bc", "2",
            "--n-min", "0", "--n-max", "0", "--format", "json"]
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    doc = json.loads(a.read_text())
    assert doc["tool"] == "stieltjes-spec"
    assert doc["schema"] == "eig-v1"
    assert len(doc["config_sha256"]) == 64
    assert doc["columns"][2] == "lambda"
    assert len(doc["rows"]) == 1


# the README's eig, sens and charfn examples with the config-sha256 and
# tolerances header lines they write: what a run reports as its resolved
# configuration must not move when a setting changes from field to constant
README_HEADERS = [
    (["eig", "--p", "zero", "--q", "zero", "--bc", "1", "--n-min", "-2",
      "--n-max", "2", "--verify-count"],
     "d3887613fb8c9a1ef7b60a89e7512cd26004f32e4f1006d7bae420f86f15c1ea",
     "bisect_tol=1e-12 c_pi=10000.0 solver_tol=1e-09"),
    (["sens", "--p", "atom:0.4:0.3", "--q", "atom:0.5:0.7", "--bc", "1",
      "--n-min", "1", "--n-max", "1", "--nu", "lebesgue", "--channel", "p"],
     "644774a947270d6fa824b185b9281183d3d072494f35c5193d89a1e200f18ff0",
     "solver_tol=1e-09"),
    (["charfn", "--p", "zero", "--q", "zero", "--bc", "1", "--lambda=-10:300",
      "--grid", "200"],
     "ce7b475b2586372e6e98576c875a29ceefe7a4c775802acaf0f125184ed136fc",
     "solver_tol=1e-09"),
]


@pytest.mark.parametrize("command,sha,tolerances", README_HEADERS,
                         ids=[c[0][0] for c in README_HEADERS])
def test_readme_headers_are_frozen(tmp_path, command, sha, tolerances):
    out_file = tmp_path / "table.csv"
    assert main(command + ["--out", str(out_file)]) == 0
    meta, _, _ = _read_table(out_file)
    assert meta[2] == f"# config-sha256: {sha}"
    assert meta[3] == f"# tolerances: {tolerances}"


def test_threads_env_validation(monkeypatch, capsys):
    monkeypatch.setenv("STIELTJES_SPEC_THREADS", "abc")
    assert main(["solve", "--lambda", "1"]) == 2
    assert _stderr_error(capsys)["error"] == "BAD_ARGUMENT"
    monkeypatch.setenv("STIELTJES_SPEC_THREADS", "0")
    assert main(["solve", "--lambda", "1"]) == 2
    capsys.readouterr()
    monkeypatch.setenv("STIELTJES_SPEC_THREADS", "4")
    assert thread_cap() == 4
    assert main(["solve", "--lambda", "1"]) == 0


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert "stieltjes-spec 0.1.0" in capsys.readouterr().out


@pytest.mark.parametrize("command", [
    ["charfn", "--bc", "1", "--lambda=-10:300", "--grid", "-1"],
    ["charfn", "--bc", "1", "--lambda=-10:300", "--grid", "0"],
    ["lab", "bounds", "--lambda", "64", "--seed", "7", "--samples", "0"],
    ["lab", "bounds", "--lambda", "64", "--seed", "7", "--samples", "-2"],
])
def test_empty_sweeps_are_refused(capsys, tmp_path, command):
    # a scan of no points, or an audit of no cases, would pass vacuously
    out_file = tmp_path / "table.csv"
    assert main(command + ["--out", str(out_file)]) == 2
    assert _stderr_error(capsys)["error"] == "BAD_ARGUMENT"
    assert not out_file.exists()


@pytest.mark.parametrize("command", [
    ["sens", "--bc", "1", "--n-min", "1", "--n-max", "1", "--epsilons", "abc"],
    ["charfn", "--bc", "1", "--lambda", "abc:5"],
    ["charfn", "--bc", "1", "--lambda", "0:inf"],
    ["lab", "solcont", "--family", "lebesgue", "--epsilons", "nan"],
])
def test_bad_number_flags_are_bad_arguments(capsys, command):
    # only measure literals and files report MEASURE_PARSE
    assert main(command) == 2
    assert _stderr_error(capsys)["error"] == "BAD_ARGUMENT"


@pytest.mark.parametrize("literal", ["atom:x:1", "atom:0.5:nan",
                                     "density:[1,abc]"])
def test_bad_numbers_in_measure_literals_stay_parse_errors(capsys, literal):
    assert main(["solve", "--p", literal, "--lambda", "1"]) == 2
    assert _stderr_error(capsys)["error"] == "MEASURE_PARSE"


@pytest.mark.parametrize("command,message", [
    (["solve", "--lambda", "abc"], "cannot parse complex number"),
    (["solve", "--lambda", "64", "--init", "1,0"], "three comma-separated values"),
    (["lab", "solcont", "--lambda", ","], "need at least one lambda"),
    (["lab", "solcont", "--family", "oscillation", "--m", "2,x"],
     "cannot parse integer list"),
    (["lab", "solcont", "--family", "oscillation", "--m", ","], "need at least one entry"),
    (["lab", "solcont", "--family", "lebesgue", "--epsilons", ","],
     "need at least one entry"),
    (["charfn", "--bc", "1", "--lambda", "5:1"], "lambda range needs lo < hi"),
    (["eig", "--bc", "1", "--n-min", "3", "--n-max", "2"], "need --n-min <= --n-max"),
    (["sens", "--bc", "1", "--n-min", "3", "--n-max", "2"], "need --n-min <= --n-max"),
])
def test_malformed_lists_and_ranges_are_bad_arguments(capsys, command, message):
    assert main(command) == 2
    err = _stderr_error(capsys)
    assert err["error"] == "BAD_ARGUMENT" and message in err["message"]
