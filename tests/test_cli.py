import argparse
import csv
import math
import os
import threading
import tracemalloc

import numpy as np
import pytest

from chshlab import chsh, cli, expsim
from chshlab.chsh import haar_sample_s, quantum_bounds, s_parameter
from chshlab.cli import (
    _lines,
    _write_rows,
    build_parser,
    cmd_sample,
    cmd_simulate,
    load_noise_config,
    main,
    parse_angle_list,
    parse_grid,
)
from chshlab.expsim import NoiseModel, estimate_s
from chshlab.linalg import herm_eigenvalues
from chshlab.rng import derive_seed

SQRT2 = math.sqrt(2.0)
PI = math.pi


def read_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def run_cli(*argv):
    return main([str(a) for a in argv])


# Every action of build_parser() and of its subparsers, as
# (class, option strings, dest, default, type, required, help).
HELP_ACTION = (
    "_HelpAction", ("-h", "--help"), "help", argparse.SUPPRESS, None, False, "show this help message and exit"
)
NEGATIVE_NOTE = "; join a negative first value to the flag with ="
GRID_HELP = "start:stop:count (default 0:pi:181)" + NEGATIVE_NOTE


def store(flag, dest, default, kind, required, help):
    return ("_StoreAction", (flag,), dest, default, kind, required, help)


OPTION_PIN = {
    "--theta-grid": store("--theta-grid", "theta_grid", None, None, False, GRID_HELP),
    "--xi-grid": store("--xi-grid", "xi_grid", None, None, False, GRID_HELP),
    "--theta-list": store(
        "--theta-list", "theta_list", None, None, False, "comma-separated theta values" + NEGATIVE_NOTE
    ),
    "--xi-list": store("--xi-list", "xi_list", None, None, False, "comma-separated xi values" + NEGATIVE_NOTE),
    "--pairs": store("--pairs", "pairs", 10000, "int", False, "photon pairs per setting"),
    "--replications": store("--replications", "replications", 1, "int", False, "replications per (theta, xi)"),
    "--config": store("--config", "config", None, None, False, "noise profile file with key = value lines"),
    "--visibility": store("--visibility", "visibility", None, "float", False, "Werner visibility in [0, 1]"),
    "--offset-a": store("--offset-a", "analyzer_offset_a", None, "float", False, "analyzer a offset angle"),
    "--offset-b": store("--offset-b", "analyzer_offset_b", None, "float", False, "analyzer b offset angle"),
    "--accidentals": store(
        "--accidentals", "accidental_fraction", None, "float", False, "accidental coincidence fraction in [0, 1)"
    ),
    "--theta": store("--theta", "theta", None, "float", True, "setting parameter theta"),
    "--n": store("--n", "n", 10000, "int", False, "number of random states"),
    "--out": store("--out", "out", None, None, True, "output CSV path"),
    "--seed": store("--seed", "seed", 0, "int", False, "64-bit seed (default 0)"),
    "--degrees": (
        "_StoreTrueAction", ("--degrees",), "degrees", False, None, False, "interpret command-line angles as degrees"
    ),
}
COMMON = ("--out", "--seed", "--degrees")
NOISE = ("--config", "--visibility", "--offset-a", "--offset-b", "--accidentals")
COMMAND_PIN = {
    "surface": ("S over a full (theta, xi) grid", ("--theta-grid", "--xi-grid", *COMMON)),
    "sweep-xi": ("S versus xi for chosen theta values", ("--theta-list", "--xi-grid", *COMMON)),
    "sweep-theta": ("S versus theta with the spectral bound envelope", ("--xi-list", "--theta-grid", *COMMON)),
    "bounds": ("classical, spectral, and quantum-ceiling bounds per theta", ("--theta-grid", *COMMON)),
    "simulate": (
        "simulated S measurements with error bars",
        ("--theta-list", "--xi-list", "--pairs", "--replications", *NOISE, *COMMON),
    ),
    "sample": ("Bell-operator expectations of random pure states", ("--theta", "--n", *COMMON)),
}


def parser_actions(parser):
    return [
        (type(a).__name__, tuple(a.option_strings), a.dest, a.default, getattr(a.type, "__name__", a.type),
         a.required, a.help)
        for a in parser._actions
    ]


class TestParserPin:
    """The parser's options, defaults and help strings, pinned action by action.

    The --help text itself is left out: argparse formats it differently across
    Python versions, while these fields are the same on all of them.
    """

    def test_top_level(self):
        parser = build_parser()
        description = "CHSH parameter sweeps, correlation bounds, and coincidence-counting simulation."
        assert (parser.prog, parser.description) == ("chshlab", description)
        assert parser_actions(parser) == [HELP_ACTION, ("_SubParsersAction", (), "command", None, None, True, None)]

    def test_subcommands(self):
        (sub,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
        assert [(c.dest, c.help) for c in sub._choices_actions] == [(k, v[0]) for k, v in COMMAND_PIN.items()]
        for name, (_, flags) in COMMAND_PIN.items():
            assert parser_actions(sub.choices[name]) == [HELP_ACTION] + [OPTION_PIN[f] for f in flags], name


class TestParsing:
    def test_grid(self):
        g = parse_grid("0:3.14:5")
        assert g[0] == 0.0 and g[-1] == 3.14 and len(g) == 5
        assert np.array_equal(parse_grid(None), np.linspace(0.0, PI, 181))

    def test_grid_degrees(self):
        g = parse_grid("0:180:3", degrees=True)
        assert g[-1] == pytest.approx(PI, abs=1e-15)
        # Degrees convert before the points are spaced, so the grid matches its radian form exactly.
        radians = f"{math.radians(10)!r}:{math.radians(170)!r}:33"
        assert np.array_equal(parse_grid("10:170:33", degrees=True), parse_grid(radians))

    def test_grid_errors(self):
        for bad in ("1:0:5", "0:1:1", "0:1", "a:b:c", "0:inf:4"):
            with pytest.raises(ValueError):
                parse_grid(bad)

    def test_angle_list(self):
        assert parse_angle_list("0, 0.5 ,1") == (0.0, 0.5, 1.0)
        assert parse_angle_list("90", degrees=True) == (PI / 2,)
        assert parse_angle_list(None) == cli.DEFAULT_ANGLE_LIST
        with pytest.raises(ValueError):
            parse_angle_list("")
        with pytest.raises(ValueError):
            parse_angle_list("1,x")

    def test_run_config_validation(self, tmp_path):
        out = str(tmp_path / "x.csv")
        with pytest.raises(ValueError, match="pairs"):
            cmd_simulate((0.5,), (0.1,), 1, NoiseModel(), 0, 1, out)
        with pytest.raises(ValueError, match="replications"):
            cmd_simulate((0.5,), (0.1,), 10, NoiseModel(), 0, 0, out)
        assert list(tmp_path.iterdir()) == []


class TestSurface:
    def test_grid_shape_and_values(self, tmp_path):
        out = tmp_path / "surface.csv"
        rc = run_cli(
            "surface",
            "--theta-grid", f"0:{PI / 4}:2",
            "--xi-grid", f"0:{PI / 2}:3",
            "--out", out,
        )
        assert rc == 0
        header, rows = read_csv(out)
        assert header == ["theta", "xi", "s"]
        assert len(rows) == 6
        # row-major in theta then xi
        assert [r[0] for r in rows[:3]] == ["0", "0", "0"]
        by_key = {(r[0], r[1]): float(r[2]) for r in rows}
        assert by_key[("0.785398163397", "0")] == pytest.approx(2 * SQRT2, abs=1e-9)

    def test_twelve_significant_digits(self, tmp_path):
        out = tmp_path / "surface.csv"
        run_cli("surface", "--theta-grid", f"0:{PI / 4}:2", "--xi-grid", f"0:{PI / 2}:2", "--out", out)
        assert "2.82842712475" in out.read_text()

    def test_rerun_is_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        argv = ["surface", "--theta-grid", f"0:{PI}:12", "--xi-grid", f"0:{PI}:7"]
        assert run_cli(*argv, "--out", a) == 0
        assert run_cli(*argv, "--out", b) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_degrees_flag_matches_radians(self, tmp_path):
        a, b = tmp_path / "deg.csv", tmp_path / "rad.csv"
        run_cli("surface", "--theta-grid", "0:180:7", "--xi-grid", "0:180:5", "--degrees", "--out", a)
        run_cli("surface", "--theta-grid", f"0:{PI}:7", "--xi-grid", f"0:{PI}:5", "--out", b)
        assert a.read_bytes() == b.read_bytes()


class TestSweepXi:
    def test_quarter_pi_curve_peaks_at_zero(self, tmp_path):
        out = tmp_path / "sweep.csv"
        rc = run_cli("sweep-xi", "--theta-list", str(PI / 4), "--xi-grid", f"0:{PI}:181", "--out", out)
        assert rc == 0
        header, rows = read_csv(out)
        assert header == ["theta", "xi", "s", "classical_limit", "cirelson_limit"]
        s_by_xi = [(float(r[1]), float(r[2])) for r in rows]
        xi_at_max, s_max = max(s_by_xi, key=lambda t: t[1])
        assert xi_at_max == 0.0
        assert s_max == pytest.approx(2 * SQRT2, abs=1e-9)
        assert all(r[3] == "2" and r[4] == "2.82842712475" for r in rows)

    def test_half_pi_curve_is_two_sin_two_xi(self, tmp_path):
        out = tmp_path / "sweep.csv"
        run_cli("sweep-xi", "--theta-list", str(PI / 2), "--xi-grid", f"0:{PI}:9", "--out", out)
        _, rows = read_csv(out)
        for r in rows:
            xi = float(r[1])
            assert float(r[2]) == pytest.approx(2.0 * math.sin(2.0 * xi), abs=1e-9)
        s_values = [float(r[2]) for r in rows]
        assert max(s_values) == pytest.approx(2.0, abs=1e-9)
        assert float(rows[2][1]) == pytest.approx(PI / 4, abs=1e-9)  # peak sits on the grid

    def test_empty_theta_list_fails(self, tmp_path, capsys):
        rc = run_cli("sweep-xi", "--theta-list", " ", "--out", tmp_path / "x.csv")
        assert rc == 1
        assert "error" in capsys.readouterr().err


class TestNegativeValues:
    """argparse reads a separate token such as -0.5:0.5:3 as a flag; joined to its flag with = it is a value."""

    def test_equals_form_reaches_negative_xi(self, tmp_path):
        out = tmp_path / "xi.csv"
        assert run_cli("sweep-xi", "--theta-list", "0.5", "--xi-grid=-0.5:0.5:3", "--out", out) == 0
        _, rows = read_csv(out)
        assert [r[1] for r in rows] == ["-0.5", "0", "0.5"]
        assert [r[2] for r in rows] == [f"{s_parameter(0.5, xi):.12g}" for xi in (-0.5, 0.0, 0.5)]
        assert run_cli("sweep-theta", "--xi-list=-0.5,0.2", "--theta-grid", "0:1:3", "--out", out) == 0
        _, rows = read_csv(out)
        assert [r[0] for r in rows] == ["-0.5"] * 3 + ["0.2"] * 3
        assert [r[2] for r in rows] == [f"{s_parameter(t, xi):.12g}" for xi in (-0.5, 0.2) for t in (0.0, 0.5, 1.0)]

    @pytest.mark.parametrize(
        "argv", [("sweep-xi", "--xi-grid", "-0.5:0.5:3"), ("sweep-theta", "--xi-list", "-0.5,0.2")]
    )
    def test_separate_token_is_read_as_a_flag(self, argv, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli(*argv, "--out", tmp_path / "x.csv")
        assert exc.value.code == 2
        assert "expected one argument" in capsys.readouterr().err
        assert not (tmp_path / "x.csv").exists()


class TestSweepTheta:
    def test_envelope_accompanies_rows(self, tmp_path):
        out = tmp_path / "sweep.csv"
        rc = run_cli(
            "sweep-theta",
            "--xi-list", "0,0.5",
            "--theta-grid", f"0:{PI}:5",
            "--out", out,
        )
        assert rc == 0
        header, rows = read_csv(out)
        assert header == ["xi", "theta", "s", "s_qmin", "s_qmax"]
        assert len(rows) == 10
        for r in rows:
            s, q_min, q_max = float(r[2]), float(r[3]), float(r[4])
            assert q_min - 1e-9 <= s <= q_max + 1e-9
        def envelope_at(theta):
            row = min(rows, key=lambda r: abs(float(r[1]) - theta))
            return float(row[3]), float(row[4])

        assert envelope_at(PI / 4) == pytest.approx((-2.828427125, 2.828427125), abs=1e-9)
        assert envelope_at(PI / 2) == pytest.approx((-2.0, 2.0), abs=1e-9)


class TestSpectralCalls:
    @pytest.mark.parametrize("command", [("bounds",), ("sweep-theta", "--xi-list", "0,0.5")])
    def test_one_quantum_bounds_call_per_grid(self, command, tmp_path, monkeypatch):
        calls = []

        def counted(theta):
            calls.append(np.shape(theta))
            return quantum_bounds(theta)

        monkeypatch.setattr(cli, "quantum_bounds", counted)
        assert run_cli(*command, "--theta-grid", "0:3:31", "--out", tmp_path / "x.csv") == 0
        assert calls == [(31,)]

    def test_one_spectrum_per_sample_run(self, tmp_path, monkeypatch):
        # The samples and the summary's s_qmin/s_qmax come from one eigensolver call.
        calls = []

        def counted(h):
            calls.append(np.shape(h))
            return herm_eigenvalues(h)

        monkeypatch.setattr(chsh, "herm_eigenvalues", counted)
        assert run_cli("sample", "--theta", "0.3", "--n", "5000", "--out", tmp_path / "x.csv") == 0
        assert calls == [(4, 4)]


class TestBounds:
    def test_gap_table(self, tmp_path):
        out = tmp_path / "bounds.csv"
        rc = run_cli("bounds", "--theta-grid", f"0:{PI}:9", "--out", out)
        assert rc == 0
        header, rows = read_csv(out)
        assert header == ["theta", "classical_bound", "quantum_max", "cirelson", "superquantum_gap"]
        def gap_at(theta):
            row = min(rows, key=lambda r: abs(float(r[0]) - theta))
            return float(row[4])

        assert gap_at(PI / 4) == pytest.approx(0.0, abs=1e-9)
        assert gap_at(PI / 2) == pytest.approx(2 * SQRT2 - 2.0, abs=1e-9)
        assert all(float(r[4]) >= -1e-9 for r in rows)
        assert all(r[1] == "2" for r in rows)


class TestSimulate:
    def test_reproducible_and_calibrated(self, tmp_path):
        out1, out2 = tmp_path / "sim1.csv", tmp_path / "sim2.csv"
        argv = [
            "simulate",
            "--theta-list", str(PI / 4),
            "--xi-list", "0",
            "--pairs", "100000",
            "--replications", "3",
            "--seed", "11",
            "--visibility", "1",
            "--accidentals", "0",
        ]
        assert run_cli(*argv, "--out", out1) == 0
        assert run_cli(*argv, "--out", out2) == 0
        assert out1.read_bytes() == out2.read_bytes()
        header, rows = read_csv(out1)
        assert header == ["theta", "xi", "s_hat", "std_err", "s_ideal"]
        assert len(rows) == 3
        for r in rows:
            s_hat, std_err, s_ideal = float(r[2]), float(r[3]), float(r[4])
            assert s_ideal == pytest.approx(2 * SQRT2, abs=1e-9)
            assert abs(s_hat - s_ideal) < 5 * std_err

    def test_werner_visibility_scaling(self, tmp_path):
        out = tmp_path / "sim.csv"
        run_cli(
            "simulate",
            "--theta-list", str(PI / 4), "--xi-list", "0",
            "--pairs", "200000", "--replications", "2", "--seed", "5",
            "--visibility", "0.96", "--accidentals", "0",
            "--out", out,
        )
        _, rows = read_csv(out)
        for r in rows:
            s_hat, std_err, s_ideal = float(r[2]), float(r[3]), float(r[4])
            assert abs(s_hat - 0.96 * s_ideal) < 5 * std_err

    def test_config_file_matches_flags(self, tmp_path):
        cfg = tmp_path / "noise.cfg"
        cfg.write_text(
            "# bench profile\nvisibility = 0.5\naccidental_fraction = 0.01\n"
            "analyzer_offset_a = 0.02\nanalyzer_offset_b = -0.01\n"
        )
        out_cfg, out_flags = tmp_path / "a.csv", tmp_path / "b.csv"
        common = ["simulate", "--theta-list", "0.6", "--xi-list", "0.2", "--pairs", "5000", "--seed", "9"]
        assert run_cli(*common, "--config", cfg, "--out", out_cfg) == 0
        assert run_cli(
            *common,
            "--visibility", "0.5", "--accidentals", "0.01",
            "--offset-a", "0.02", "--offset-b", "-0.01",
            "--out", out_flags,
        ) == 0
        assert out_cfg.read_bytes() == out_flags.read_bytes()

    def test_flags_override_config(self, tmp_path):
        cfg = tmp_path / "noise.cfg"
        cfg.write_text("visibility = 0.5\n")
        out_a, out_b = tmp_path / "a.csv", tmp_path / "b.csv"
        common = ["simulate", "--theta-list", "0.6", "--xi-list", "0.2", "--pairs", "5000", "--seed", "9"]
        run_cli(*common, "--config", cfg, "--visibility", "0.9", "--out", out_a)
        run_cli(*common, "--visibility", "0.9", "--out", out_b)
        assert out_a.read_bytes() == out_b.read_bytes()

    def test_config_rejects_unknown_key(self, tmp_path, capsys):
        cfg = tmp_path / "noise.cfg"
        cfg.write_text("darkrate = 3\n")
        rc = run_cli(
            "simulate", "--theta-list", "0.6", "--xi-list", "0.2",
            "--config", cfg, "--out", tmp_path / "x.csv",
        )
        assert rc == 1
        assert "darkrate" in capsys.readouterr().err

    def test_config_rejects_duplicate_key(self, tmp_path, capsys):
        cfg = tmp_path / "noise.cfg"
        cfg.write_text("visibility = 0.9\n# later\nvisibility = 0.5\n")
        out = tmp_path / "x.csv"
        assert run_cli("simulate", "--pairs", "500", "--config", cfg, "--out", out) == 1
        assert capsys.readouterr().err == f"chshlab: error: {cfg}:3: duplicate key 'visibility'\n"
        assert not out.exists()

    def test_cmd_simulate_direct_call(self, tmp_path):
        out = tmp_path / "direct.csv"
        cmd_simulate((0.5,), (0.1, 0.2), 1000, NoiseModel.ideal(), 1, 2, str(out))
        _, rows = read_csv(out)
        assert len(rows) == 4

    @pytest.mark.parametrize(
        "command, flag, value",
        [
            (("simulate",), "--replications", "0"),
            (("simulate",), "--pairs", "1"),
            (("sample", "--theta", "0.3"), "--n", "0"),
        ],
        ids=["--replications-0", "--pairs-1", "--n-0"],
    )
    def test_counts_below_minimum_fail(self, command, flag, value, tmp_path, capsys):
        out = tmp_path / "x.csv"
        assert run_cli(*command, flag, value, "--out", out) == 1
        assert capsys.readouterr().err.startswith(f"chshlab: error: {flag.lstrip('-')} must be at least")
        assert not out.exists()

    def test_pairs_above_cap_fail(self, tmp_path, capsys):
        out = tmp_path / "x.csv"
        assert run_cli("simulate", "--pairs", 10**12 + 1, "--out", out) == 1
        err = capsys.readouterr().err
        assert err == "chshlab: error: pairs must be at most 1000000000000, got 1000000000001\n"
        assert not out.exists()

    def test_degrees_applies_to_noise_offsets(self, tmp_path):
        deg, rad = tmp_path / "deg.csv", tmp_path / "rad.csv"
        common = ["simulate", "--pairs", "5000", "--replications", "2", "--seed", "9"]
        assert run_cli(
            *common, "--degrees", "--theta-list", "45,90", "--xi-list", "0,90",
            "--offset-a", "1", "--offset-b", "-2", "--out", deg,
        ) == 0
        assert run_cli(
            *common, "--theta-list", f"{PI / 4},{PI / 2}", "--xi-list", f"0,{PI / 2}",
            "--offset-a", repr(math.radians(1)), "--offset-b", repr(math.radians(-2)), "--out", rad,
        ) == 0
        assert deg.read_bytes() == rad.read_bytes()
        offset_free = tmp_path / "none.csv"
        assert run_cli(*common, "--degrees", "--theta-list", "45,90", "--xi-list", "0,90", "--out", offset_free) == 0
        assert deg.read_bytes() != offset_free.read_bytes()

    def test_one_estimate_s_call_per_run(self, tmp_path, monkeypatch):
        estimates, tables = [], []

        def counted_estimate(*args):
            estimates.append(args)
            return estimate_s(*args)

        def counted_table(*args):
            tables.append(table(*args))
            return tables[-1]

        table = expsim.setting_probabilities
        monkeypatch.setattr(cli, "estimate_s", counted_estimate)
        monkeypatch.setattr(expsim, "setting_probabilities", counted_table)
        out = tmp_path / "x.csv"
        argv = ["--theta-list", "0.1,0.7,1.3", "--xi-list", "0,0.4", "--pairs", "500", "--replications", "4"]
        assert run_cli("simulate", *argv, "--seed", "2", "--out", out) == 0
        assert len(estimates) == 1
        assert [p.shape for p in tables] == [(3, 2, 1, 4, 4)]
        # Row (i, j, rep) is the scalar estimate at derive_seed(seed, i, j, rep).
        _, rows = read_csv(out)
        assert len(rows) == 24
        noise = NoiseModel()
        for index, row in enumerate(rows):
            i, j, rep = np.unravel_index(index, (3, 2, 4))
            theta, xi = (0.1, 0.7, 1.3)[i], (0.0, 0.4)[j]
            est = estimate_s(theta, xi, 500, noise, derive_seed(2, int(i), int(j), int(rep)))
            values = (theta, xi, est.s_hat, est.std_err, s_parameter(theta, xi))
            assert row == [f"{v:.12g}" for v in values]


class TestSample:
    def test_summary_and_containment(self, tmp_path):
        out = tmp_path / "sample.csv"
        rc = run_cli("sample", "--theta", str(PI / 4), "--n", "2000", "--seed", "20260808", "--out", out)
        assert rc == 0
        header, rows = read_csv(out)
        assert header == ["index", "s_sample", "sample_min", "sample_max", "s_qmin", "s_qmax"]
        data, summary = rows[:-1], rows[-1]
        assert len(data) == 2000
        qb = quantum_bounds(PI / 4)
        samples = [float(r[1]) for r in data]
        assert summary[0] == "summary"
        assert float(summary[2]) == pytest.approx(min(samples), abs=1e-12)
        assert float(summary[3]) == pytest.approx(max(samples), abs=1e-12)
        assert float(summary[3]) <= float(summary[5]) + 1e-9
        assert all(qb.s_min - 1e-9 <= s <= qb.s_max + 1e-9 for s in samples)

    def test_calibrated_max_at_hundred_thousand(self, tmp_path):
        out = tmp_path / "sample.csv"
        run_cli("sample", "--theta", str(PI / 4), "--n", "100000", "--seed", "20260808", "--out", out)
        _, rows = read_csv(out)
        assert float(rows[-1][3]) >= 2.68

    def test_degrees(self, tmp_path):
        a, b = tmp_path / "deg.csv", tmp_path / "rad.csv"
        run_cli("sample", "--theta", "45", "--degrees", "--n", "50", "--seed", "3", "--out", a)
        run_cli("sample", "--theta", str(PI / 4), "--n", "50", "--seed", "3", "--out", b)
        assert a.read_bytes() == b.read_bytes()

    def test_rejects_zero_samples(self, tmp_path, capsys):
        rc = run_cli("sample", "--theta", "0.5", "--n", "0", "--out", tmp_path / "x.csv")
        assert rc == 1
        assert capsys.readouterr().err == "chshlab: error: n must be at least 1, got 0\n"

    @pytest.mark.parametrize("flags", [("--n", "0"), ("--n", "-3"), ("--n", "10", "--theta", "4")])
    def test_bad_flags_write_no_byte(self, flags, tmp_path, capsys):
        # n and theta are checked before the output is opened: no file appears at
        # a path, and a FIFO reader sees end of file with no header before it.
        argv = ("sample", "--theta", "0.5", *flags)
        assert run_cli(*argv, "--out", tmp_path / "x.csv") == 1
        assert list(tmp_path.iterdir()) == []
        fifo = tmp_path / "out.fifo"
        os.mkfifo(fifo)
        reader = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)
        try:
            assert run_cli(*argv, "--out", fifo) == 1
            assert os.read(reader, 4096) == b""
        finally:
            os.close(reader)
        assert capsys.readouterr().err.count("chshlab: error:") == 2

    @pytest.mark.parametrize("n", [1000, 100_000])
    def test_bytes_do_not_depend_on_block_sizes(self, n, tmp_path, monkeypatch):
        argv = ("sample", "--theta", str(PI / 4), "--n", n, "--seed", "3", "--out")
        assert run_cli(*argv, tmp_path / "default.csv") == 0
        monkeypatch.setattr(chsh, "_HAAR_CHUNK", 7)
        monkeypatch.setattr(cli, "_BLOCK_ROWS", 5)
        assert run_cli(*argv, tmp_path / "small.csv") == 0
        assert (tmp_path / "small.csv").read_bytes() == (tmp_path / "default.csv").read_bytes()


class TestErrorHandling:
    @pytest.mark.parametrize(
        "command",
        [("surface",), ("sweep-xi",), ("sweep-theta",), ("bounds",), ("sample", "--theta", "0.5")],
    )
    def test_config_only_on_simulate(self, command, tmp_path, capsys):
        cfg = tmp_path / "noise.cfg"
        cfg.write_text("visibility = 0.5\n")
        with pytest.raises(SystemExit) as exc:
            run_cli(*command, "--config", cfg, "--out", tmp_path / "x.csv")
        assert exc.value.code == 2
        assert "--config" in capsys.readouterr().err
        assert not (tmp_path / "x.csv").exists()

    def test_unwritable_path(self, tmp_path, capsys):
        missing_dir = tmp_path / "absent" / "out.csv"
        rc = run_cli("bounds", "--theta-grid", "0:1:3", "--out", missing_dir)
        assert rc == 1
        assert str(missing_dir) in capsys.readouterr().err

    def test_theta_grid_outside_domain(self, tmp_path, capsys):
        rc = run_cli("bounds", "--theta-grid", "0:7:3", "--out", tmp_path / "x.csv")
        assert rc == 1
        assert "theta" in capsys.readouterr().err

    def test_bad_grid_syntax(self, tmp_path, capsys):
        rc = run_cli("surface", "--theta-grid", "0::5", "--out", tmp_path / "x.csv")
        assert rc == 1
        capsys.readouterr()

    def test_failed_write_leaves_no_partial_file(self, tmp_path):
        def rows_then_failure():
            for i in range(10_000):
                yield f"{i},0.5\n"
            raise OSError("disk full")

        target = tmp_path / "out.csv"
        with pytest.raises(OSError, match="disk full"):
            _write_rows(str(target), ("index", "s"), rows_then_failure())
        assert list(tmp_path.iterdir()) == []

        target.write_bytes(b"old,bytes\n")
        with pytest.raises(OSError, match="disk full"):
            _write_rows(str(target), ("index", "s"), rows_then_failure())
        assert target.read_bytes() == b"old,bytes\n"
        assert list(tmp_path.iterdir()) == [target]

    def test_symlink_target_written_through(self, tmp_path):
        target = tmp_path / "data" / "bounds.csv"
        target.parent.mkdir()
        target.write_bytes(b"old,bytes\n")
        target.chmod(0o640)
        link = tmp_path / "link.csv"
        link.symlink_to(target)
        assert run_cli("bounds", "--theta-grid", "0:1:3", "--out", link) == 0
        assert link.is_symlink()
        assert target.read_bytes().startswith(b"theta,classical_bound,")
        assert target.stat().st_mode & 0o777 == 0o640
        assert sorted(p.name for p in target.parent.iterdir()) == ["bounds.csv"]

    def test_fifo_written_directly(self, tmp_path):
        fifo = tmp_path / "out.fifo"
        os.mkfifo(fifo)
        received = []
        reader = threading.Thread(target=lambda: received.append(fifo.read_bytes()), daemon=True)
        reader.start()
        rc = run_cli("bounds", "--theta-grid", "0:1:3", "--out", fifo)
        reader.join(timeout=10)
        assert rc == 0
        assert received[0].startswith(b"theta,classical_bound,")
        assert received[0].count(b"\n") == 4
        assert sorted(p.name for p in tmp_path.iterdir()) == ["out.fifo"]


class TestFormatting:
    EDGES = [
        -0.0,
        5e-324,
        1e-5,
        9.99999999999e-05,
        1e16,
        123456789012.5,
        4.4408920985e-16,
        2.0 * SQRT2,
        math.pi,
        -1.0 / 3.0,
    ]

    def test_cells_match_format_g12(self):
        text = "".join(_lines(np.array(self.EDGES)))
        assert text == "".join(format(v, ".12g") + "\n" for v in self.EDGES)

    def test_int_column(self):
        ints = np.array([0, 7, -3, 10**11, 999_999_999_999])
        text = "".join(_lines(ints, 0.5))
        assert text == "".join(f"{format(int(i), '.12g')},0.5\n" for i in ints)

    def test_int_cells_at_the_digit_limit(self):
        # %d strictly inside +-10**12, %.12g (1e+12) from there on: format(i, ".12g") either way.
        edges = [10**12 - 1, 1 - 10**12, 10**12, -(10**12), 10**15]
        columns = [np.array([v]) for v in edges] + [np.array(edges)]
        columns += [np.array(edges[:1], dtype=np.uint64), np.array([10**12 - 1, 10**12], dtype=np.uint64)]
        for ints in columns:
            assert "".join(_lines(ints)) == "".join(format(int(i), ".12g") + "\n" for i in ints)

    def test_broadcast_constants_and_literal_cells(self):
        rows = "".join(_lines(np.array([[0.25], [1.5]]), np.array([1.0, -0.0, 3e-7]), "", 2.0, "x"))
        expected = [f"{o:.12g},{i:.12g},,2,x\n" for o in (0.25, 1.5) for i in (1.0, -0.0, 3e-7)]
        assert rows == "".join(expected)

    def test_row_order_and_count_across_blocks(self):
        n = 3 * cli._BLOCK_ROWS + 5
        values = np.linspace(0.0, 1.0, n)
        lines = "".join(_lines(np.arange(n), values)).splitlines()
        assert lines == [f"{i},{v:.12g}" for i, v in enumerate(values.tolist())]


class TestSampleMemory:
    def test_rows_are_written_in_bounded_blocks(self, tmp_path):
        # cmd_sample holds one sampler block and one block of formatted rows at a
        # time, never all n samples or indices, so its peak does not grow with n.
        peaks = []
        for n in (200_000, 2_000_000):
            out = tmp_path / "sample.csv"
            tracemalloc.start()
            try:
                cmd_sample(0.785, n, 1, str(out))
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            with open(out, "rb") as fh:
                fh.seek(-200, os.SEEK_END)
                *_, final_row, summary = fh.read().decode().splitlines()
            samples = haar_sample_s(0.785, n, 1)
            assert final_row.startswith(f"{n - 1},")
            assert summary.split(",")[:4] == ["summary", "", f"{samples.min():.12g}", f"{samples.max():.12g}"]
        mib = [round(p / 2**20, 2) for p in peaks]
        assert max(peaks) < 8 * 2**20, f"tracemalloc peaks {mib} MiB"
        assert abs(peaks[1] - peaks[0]) < 2**20, f"tracemalloc peaks {mib} MiB"


class TestSweepSpecValidation:
    def test_grid_spec_invariants(self):
        with pytest.raises(ValueError, match="must be below stop"):
            parse_grid("1:0:5")
        with pytest.raises(ValueError, match="at least 2"):
            parse_grid("0:1:1")
        with pytest.raises(ValueError, match="finite"):
            parse_grid("0:nan:5", degrees=True)
