import argparse
import csv
import ctypes
import dataclasses
import importlib.metadata
import itertools
import math
import multiprocessing
import multiprocessing.connection
import os
import pickle
import signal
import subprocess
import sys
import threading
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from chshlab import chsh, cli, expsim
from chshlab.chsh import bell_spectrum, haar_sample_s, quantum_bounds, s_parameter
from chshlab.cli import (
    _lines,
    _write_rows,
    build_parser,
    cmd_simulate,
    main,
    parse_angle_list,
    parse_grid,
)
from chshlab.expsim import NoiseModel, estimate_s
from chshlab.linalg import herm_eigenvalues
from chshlab.rng import derive_seed
from test_golden import CASES as GOLDEN_CASES

SQRT2 = math.sqrt(2.0)
PI = math.pi


def read_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def run_cli(*argv):
    return main([str(a) for a in argv])


def joined_rows(*columns):
    """The reference for _lines: each row's cells joined one by one, a number as format(value, ".12g")."""
    arrays = np.broadcast_arrays(*(np.asarray(c) for c in columns if not isinstance(c, bytes)))
    rows = []
    for index in np.ndindex(arrays[0].shape if arrays else ()):
        values = iter([a[index].item() for a in arrays])
        cells = (c if isinstance(c, bytes) else format(next(values), ".12g").encode() for c in columns)
        rows.append(b",".join(cells) + b"\n")
    return b"".join(rows)


# Prints the peak RSS, in KiB on Linux, of python -m chshlab.  Linux hands a spawned child the high-water
# RSS of its parent, so this small process spawns the run, not pytest.
RSS_PROBE = """import resource, subprocess, sys
subprocess.run([sys.executable, "-m", "chshlab", *sys.argv[1:]], check=True)
print(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)"""


def report_cpus(monkeypatch, count):
    """Make os.sched_getaffinity report ``count`` CPUs, whatever the machine has."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)))


def percent_cells(monkeypatch):
    """The number of values of each cli._percent call from here on: the cells _lines leaves to %."""
    counts, percent = [], cli._percent

    def spy(lead, values):
        counts.append(len(values))
        return percent(lead, values)

    monkeypatch.setattr(cli, "_percent", spy)
    return counts


@pytest.fixture
def started(monkeypatch):
    """The forked processes started during the test, in start order."""
    processes = []
    start = multiprocessing.context.ForkProcess.start

    def record(process):
        processes.append(process)
        start(process)

    monkeypatch.setattr(multiprocessing.context.ForkProcess, "start", record)
    return processes


@pytest.fixture
def alarm():
    """Fails a test that hangs for a minute, where a lost turn would otherwise block it for good."""

    def hung(signum, frame):
        pytest.fail("the test hung for 60 s")

    previous = signal.signal(signal.SIGALRM, hung)
    signal.alarm(60)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)


# Copies a FIFO, the first argument, to a file, the second, until the last writer closes it.
FIFO_COPY = """import shutil, sys
with open(sys.argv[1], "rb") as fifo, open(sys.argv[2], "wb") as copy:
    shutil.copyfileobj(fifo, copy)"""


def cli_peak_mib(*argv):
    """Peak RSS in MiB of a CLI run, ``python -m chshlab *argv``, on the sys.path of the tests."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    return int(subprocess.check_output([sys.executable, "-c", RSS_PROBE, *map(str, argv)], env=env)) / 1024


# Prints the minor page faults and the peak RSS, in KiB on Linux, of the forked workers of one CLI run.  This small
# process runs main itself, so the only children it waits for are the workers.
WORKER_PROBE = """import resource, sys
from chshlab.cli import main
if main(sys.argv[1:]) != 0:
    sys.exit("the run failed")
usage = resource.getrusage(resource.RUSAGE_CHILDREN)
print(usage.ru_minflt, usage.ru_maxrss)"""


def cli_worker_usage(*argv):
    """Minor page faults and peak RSS in MiB of the workers of a CLI run, ``main(argv)`` in a fresh process."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    faults, peak = subprocess.check_output([sys.executable, "-c", WORKER_PROBE, *map(str, argv)], env=env).split()
    return int(faults), int(peak) / 1024


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
NOISE = ("--visibility", "--offset-a", "--offset-b", "--accidentals")
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


def subparsers(parser):
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return sub


OUT = "<out>"  # stands for the output path in EQUIVALENCE_ARGVS
EQUIVALENCE_ARGVS = [
    (),
    ("-h",),
    ("--help",),
    ("bogus",),
    ("simulate", "-h"),
    ("surface", "--help"),
    ("simulate", "--bogus"),
    ("surface", "--pairs", "3"),
    ("bounds",),
    ("simulate", "--pairs", "x", "--out", OUT),
    ("-h", "simulate"),
    ("--", "bounds"),
    ("--rep", "2"),
    ("bounds", "--theta-grid", "-1:1:3", "--out", OUT),
    ("sweep-xi", "--theta-list", "0.5", "--xi-grid=-0.5:0.5:3", "--out", OUT),
    *((name, "-h") for name in cli._COMMANDS),
    ("bounds", "--pairs", "3", "--out", OUT),
    # Options before the command: argparse still hands the command's tokens to its subparser.
    ("--bogus", "bounds"),
    ("--bogus", "bounds", "--theta-grid", "0:1:3", "--out", OUT),
    ("-", "bounds", "--out", OUT),
    ("--", "bounds", "--theta-grid", "0:1:3", "--out", OUT),
    # An abbreviated flag resolves only on a subparser that has its flags.
    ("simulate", "--rep", "2", "--pairs", "100", "--theta-list", "0.5", "--xi-list", "0", "--out", OUT),
    # Tokens left after a command's flags: the top level refuses them with its own usage.
    ("bounds", "--out", OUT, "stray"),
    ("bounds", "--theta-grid", "0:1:3", "--out", OUT, "--bogus"),
    ("bounds", "--out", OUT, "--", "x"),
    ("simulate", "--pairs"),
    # The noise model comes from flags alone; a profile file is refused like any unknown option.
    ("simulate", "--config", "noise.cfg", "--out", OUT),
    *((*argv, "--out", OUT) for argv in GOLDEN_CASES.values()),
]


def outcome(argv, out, capsys):
    """main(argv)'s return value or SystemExit code, its stdout and stderr, and the output's bytes, which are removed.

    OUT in ``argv`` stands for ``out``; None calls main() with no argument.
    """
    try:
        code = main(None if argv is None else [str(out) if a == OUT else a for a in argv])
    except SystemExit as exc:
        code = ("SystemExit", exc.code)
    captured = capsys.readouterr()
    written = out.read_bytes() if out.exists() else None
    out.unlink(missing_ok=True)
    return code, captured.out, captured.err, written


def parsed(parse, argv, capsys):
    """parse(argv)'s namespace as a list of items, or its SystemExit code, with its stdout and stderr."""
    try:
        result = list(vars(parse(list(argv))).items())
    except SystemExit as exc:
        result = ("SystemExit", exc.code)
    captured = capsys.readouterr()
    return result, captured.out, captured.err


class TestPerCommandParser:
    """main parses a call that names a command with its parser alone; nothing it prints or writes changes."""

    @pytest.mark.parametrize("command", list(cli._COMMANDS))
    def test_the_lone_parser_main_builds_has_the_full_parsers_subcommand_actions(self, command, capsys, monkeypatch):
        parsers = []
        parse_known_args = argparse.ArgumentParser.parse_known_args

        def spy(self, *args, **kwargs):
            parsers.append(self)
            return parse_known_args(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "parse_known_args", spy)
        with pytest.raises(SystemExit) as exc:
            main([command, "-h"])
        assert exc.value.code == 0
        (parser,) = parsers
        full = subparsers(build_parser()).choices[command]
        assert (parser.prog, parser.description, parser.usage) == (full.prog, full.description, full.usage)
        assert parser_actions(parser) == parser_actions(full)

    @pytest.mark.parametrize("argv", EQUIVALENCE_ARGVS, ids=lambda argv: " ".join(argv) or "no arguments")
    def test_same_exit_output_and_bytes_as_the_full_parser(self, argv, tmp_path, capsys, monkeypatch):
        out = tmp_path / "out.csv"
        argv = tuple(str(out) if a == OUT else a for a in argv)
        assert parsed(cli.parse_args, argv, capsys) == parsed(lambda a: build_parser().parse_args(a), argv, capsys)
        given = outcome(argv, out, capsys)
        # The reference: main's dispatch on the full parser's parse.
        calls = []
        monkeypatch.setattr(cli, "parse_args", lambda a: calls.append(a) or build_parser().parse_args(a))
        assert outcome(argv, out, capsys) == given
        assert calls == [list(argv)]

    def test_only_the_invoked_commands_flags_are_registered(self, tmp_path, monkeypatch):
        registered = []
        add_argument = argparse.ArgumentParser.add_argument

        def spy(self, *args, **kwargs):
            registered.append(args)
            return add_argument(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "add_argument", spy)
        built = []
        init = argparse.ArgumentParser.__init__

        def count(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", count)
        assert main(["bounds", "--theta-grid", "0:1:3", "--out", str(tmp_path / "b.csv")]) == 0
        assert built == ["chshlab bounds"]
        help_flags = ("-h", "--help")  # bounds' own; no top-level parser is built
        assert registered == [help_flags, ("--theta-grid",), ("--out",), ("--seed",), ("--degrees",)]

    @pytest.mark.parametrize("argv", [("bounds", "--theta-grid", "0:1:3", "--out", OUT), ("simulate", "-h")])
    def test_main_without_argv_reads_sys_argv(self, argv, tmp_path, capsys, monkeypatch):
        out = tmp_path / "out.csv"
        given = outcome(argv, out, capsys)
        monkeypatch.setattr(sys, "argv", ["chshlab", *(str(out) if a == OUT else a for a in argv)])
        assert outcome(None, out, capsys) == given


class TestEntryPoints:
    """Each way of starting chshlab reaches main with its argv: python -m, and the script pyproject.toml declares."""

    # A written CSV, a help, an error line and a usage error.
    ARGVS = [
        ("bounds", "--out", OUT),
        ("--help",),
        ("sweep-xi", "--theta-list", "0,,1", "--out", OUT),
        ("bounds", "--out", OUT, "stray"),
    ]

    # A subprocess, not runpy: in this process chshlab.cli is already imported, and runpy warns about that.
    @pytest.mark.parametrize("module", ["chshlab", "chshlab.cli"])
    @pytest.mark.parametrize("argv", ARGVS, ids=" ".join)
    def test_python_m_gives_what_main_gives(self, module, argv, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")  # argparse wraps help to it, here and in the child
        out = tmp_path / "out.csv"
        code, *given = outcome(argv, out, capsys)
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path), "PYTHONWARNINGS": "error::RuntimeWarning"}
        args = [str(out) if a == OUT else a for a in argv]
        run = subprocess.run([sys.executable, "-m", module, *args], env=env, capture_output=True, text=True)
        written = out.read_bytes() if out.exists() else None
        code = code[1] if isinstance(code, tuple) else code  # ("SystemExit", code) when main exits
        assert (run.returncode, run.stdout, run.stderr, written) == (code, *given)

    def test_the_script_runs_the_main_the_tests_call(self):
        tomllib = pytest.importorskip("tomllib")  # Python 3.11 and later
        pyproject = tomllib.loads((Path(__file__).parents[1] / "pyproject.toml").read_text())
        target = pyproject["project"]["scripts"]["chshlab"]
        assert importlib.metadata.EntryPoint("chshlab", target, "console_scripts").load() is main


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
        # The last two have finite endpoints whose difference overflows, which linspace turns into NaN points.
        for bad in ("1:0:5", "0:1:1", "0:1", "a:b:c", "0:inf:4", "-1e308:1e308:2", "-1.7e308:1.7e308:5"):
            with pytest.raises(ValueError):
                parse_grid(bad)

    def test_angle_list(self):
        assert parse_angle_list("0, 0.5 ,1") == (0.0, 0.5, 1.0)
        assert parse_angle_list("90", degrees=True) == (PI / 2,)
        assert parse_angle_list(None) == cli.DEFAULT_ANGLE_LIST
        # An empty entry is refused, not dropped: "0,,1" does not mean "0,1".
        for bad in ("", " ", "0,,1", "0,1,", ",0", "1,x"):
            with pytest.raises(ValueError, match=f"angle list {bad!r} contains an empty or non-numeric entry"):
                parse_angle_list(bad)


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


class TestDegrees:
    # Each command's angle flags in degrees, then the same angles in radians.
    CASES = {
        "surface": (
            ("--theta-grid", "0:180:7", "--xi-grid", "0:180:5"),
            ("--theta-grid", f"0:{PI}:7", "--xi-grid", f"0:{PI}:5"),
        ),
        "sweep-xi": (
            ("--theta-list", "45,90", "--xi-grid", "0:180:5"),
            ("--theta-list", f"{PI / 4},{PI / 2}", "--xi-grid", f"0:{PI}:5"),
        ),
        "sweep-theta": (
            ("--xi-list", "0,45", "--theta-grid", "0:180:7"),
            ("--xi-list", f"0,{PI / 4}", "--theta-grid", f"0:{PI}:7"),
        ),
        "bounds": (("--theta-grid", "0:180:7"), ("--theta-grid", f"0:{PI}:7")),
        "simulate": (
            ("--theta-list", "45,90", "--xi-list", "0,90", "--offset-a", "1", "--offset-b", "-2"),
            (
                "--theta-list", f"{PI / 4},{PI / 2}", "--xi-list", f"0,{PI / 2}",
                "--offset-a", repr(math.radians(1)), "--offset-b", repr(math.radians(-2)),
            ),
        ),
        "sample": (("--theta", "45", "--n", "50"), ("--theta", str(PI / 4), "--n", "50")),
    }

    @pytest.mark.parametrize("command", list(cli._COMMANDS))
    def test_output_matches_radians_byte_for_byte(self, command, tmp_path):
        degrees, radians = self.CASES[command]
        assert run_cli(command, *degrees, "--degrees", "--seed", "3", "--out", tmp_path / "deg.csv") == 0
        assert run_cli(command, *radians, "--seed", "3", "--out", tmp_path / "rad.csv") == 0
        assert (tmp_path / "deg.csv").read_bytes() == (tmp_path / "rad.csv").read_bytes()


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

    @pytest.mark.parametrize(
        "command, flag, value",
        [
            (("simulate",), "--replications", "0"),
            (("simulate",), "--pairs", "1"),
            (("sample", "--theta", "0.3"), "--n", "0"),
            (("simulate",), "--seed", "-1"),
            (("sample", "--theta", "0.3"), "--seed", "-1"),
        ],
        ids=["--replications-0", "--pairs-1", "--n-0", "--seed-simulate", "--seed-sample"],
    )
    def test_counts_below_minimum_fail(self, command, flag, value, tmp_path, capsys):
        out = tmp_path / "x.csv"
        assert run_cli(*command, flag, value, "--out", out) == 1
        assert capsys.readouterr().err.startswith(f"chshlab: error: {flag.lstrip('-')} must be at least")
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv, name, cap",
        [
            (("simulate", "--pairs", 10**12 + 1), "pairs", 10**12),
            # A seed from 2**64 is refused, not taken modulo 2**64 as the seed 0.
            (("simulate", "--pairs", "100", "--seed", 2**64), "seed", 2**64 - 1),
            (("sample", "--theta", "0.3", "--seed", 2**64), "seed", 2**64 - 1),
        ],
        ids=["pairs", "seed-simulate", "seed-sample"],
    )
    def test_pairs_above_cap_fail(self, argv, name, cap, tmp_path, capsys):
        out = tmp_path / "x.csv"
        assert run_cli(*argv, "--out", out) == 1
        err = capsys.readouterr().err
        assert err == f"chshlab: error: {name} must be at most {cap}, got {cap + 1}\n"
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
        assert [p.shape for p in tables] == [(3, 2, 1, 4)]
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

    def test_memory_stays_bounded(self, tmp_path):
        # The default 5 x 5 lists at 20 replications, binomial tables included, peak under 1.8 MB.
        argv = ["simulate", "--pairs", "10000", "--replications", "20", "--seed", "1", "--out", str(tmp_path / "m.csv")]
        main(argv)
        tracemalloc.start()
        try:
            main(argv)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.8 * 2**20, f"tracemalloc peak {peak / 2**20:.2f} MB"

    def test_a_1e12_pair_setting_peaks_below_60_mib(self, tmp_path):
        # Each setting walks about 1e7 binomial table entries, built in blocks; rows built whole peaked at 394 MiB.
        argv = ("simulate", "--theta-list", PI / 4, "--xi-list", 0, "--pairs", 10**12, "--seed", 5)
        peak = cli_peak_mib(*argv, "--out", tmp_path / "deep.csv")
        assert peak < 60, f"ru_maxrss {peak:.1f} MiB"


class TestNoiseFlags:
    # Each noise flag, the NoiseModel field it sets, and an in-range value that is not the field's default.
    FLAGS = [
        ("--visibility", "visibility", 0.5),
        ("--offset-a", "analyzer_offset_a", 0.02),
        ("--offset-b", "analyzer_offset_b", -0.01),
        ("--accidentals", "accidental_fraction", 0.01),
    ]

    def test_no_flag_gives_the_defaults(self):
        assert cli.resolve_noise(build_parser().parse_args(["simulate", "--out", "x.csv"])) == NoiseModel()

    @pytest.mark.parametrize("flag, field, value", FLAGS, ids=[f[0] for f in FLAGS])
    def test_each_flag_sets_its_field_alone(self, flag, field, value):
        args = build_parser().parse_args(["simulate", flag, repr(value), "--out", "x.csv"])
        assert cli.resolve_noise(args) == dataclasses.replace(NoiseModel(), **{field: value})

    @pytest.mark.parametrize(
        "flag, value, message",
        [
            ("--visibility", "1.5", "visibility 1.5 outside [0, 1]"),
            ("--offset-a", "nan", "analyzer_offset_a must be finite"),
            ("--offset-b", "inf", "analyzer_offset_b must be finite"),
            ("--accidentals", "1", "accidental_fraction 1.0 outside [0, 1)"),
        ],
        ids=["--visibility", "--offset-a", "--offset-b", "--accidentals"],
    )
    def test_out_of_range_value_fails(self, flag, value, message, tmp_path, capsys):
        out = tmp_path / "x.csv"
        assert run_cli("simulate", "--pairs", "500", flag, value, "--out", out) == 1
        assert capsys.readouterr().err == f"chshlab: error: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("flag", [f[0] for f in FLAGS])
    def test_non_numeric_value_exits_2(self, flag, tmp_path, capsys):
        out = tmp_path / "x.csv"
        with pytest.raises(SystemExit) as exc:
            run_cli("simulate", "--pairs", "500", flag, "1e-2x", "--out", out)
        assert exc.value.code == 2
        assert f"{flag}: invalid float value: '1e-2x'" in capsys.readouterr().err
        assert not out.exists()


def simulate_with_replications(replications, out):
    """cmd_simulate at one setting, with the namespace main would pass it but for replications."""
    args = build_parser().parse_args(["simulate", "--out", out])
    args.theta_list, args.xi_list, args.replications = (0.5,), (0.1,), replications
    cmd_simulate(args)


class TestCountChecks:
    # Each count through its caller: at each bound (accepted, no message), just past it, and as a non-whole float.
    @pytest.mark.parametrize(
        "call, message",
        [
            (lambda out: haar_sample_s(0.3, 1.0, 1), None),
            (lambda out: haar_sample_s(0.3, 0, 1), "n must be at least 1, got 0"),
            (lambda out: haar_sample_s(0.3, 0.0, 1), "n must be at least 1, got 0"),
            (lambda out: haar_sample_s(0.3, -3, 1), "n must be at least 1, got -3"),
            (lambda out: haar_sample_s(0.3, 2.5, 1), "n must be a whole number, got 2.5"),
            (lambda out: haar_sample_s(0.3, float("inf"), 1), "n must be a whole number, got inf"),
            (lambda out: haar_sample_s(0.3, float("-inf"), 1), "n must be a whole number, got -inf"),
            (lambda out: estimate_s(0.3, 0.1, 2, NoiseModel(), 0), None),
            (lambda out: estimate_s(0.3, 0.1, 1, NoiseModel(), 0), "pairs must be at least 2, got 1"),
            (lambda out: estimate_s(0.3, 0.1, 1.0, NoiseModel(), 0), "pairs must be at least 2, got 1"),
            (
                lambda out: estimate_s(0.3, 0.1, 10**12 + 1, NoiseModel(), 0),
                "pairs must be at most 1000000000000, got 1000000000001",
            ),
            (lambda out: estimate_s(0.3, 0.1, 100.5, NoiseModel(), 0), "pairs must be a whole number, got 100.5"),
            (lambda out: estimate_s(0.3, 0.1, float("nan"), NoiseModel(), 0), "pairs must be a whole number, got nan"),
            (lambda out: estimate_s(0.3, 0.1, float("inf"), NoiseModel(), 0), "pairs must be a whole number, got inf"),
            (lambda out: simulate_with_replications(1, out), None),
            (lambda out: simulate_with_replications(0, out), "replications must be at least 1, got 0"),
            (lambda out: simulate_with_replications(1.5, out), "replications must be a whole number, got 1.5"),
        ],
    )
    def test_messages(self, call, message, tmp_path):
        if message is None:
            call(str(tmp_path / "x.csv"))
            return
        with pytest.raises(ValueError) as exc:
            call(str(tmp_path / "x.csv"))
        assert str(exc.value) == message
        assert list(tmp_path.iterdir()) == []


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

    def test_rejects_zero_samples(self, tmp_path, capsys):
        rc = run_cli("sample", "--theta", "0.5", "--n", "0", "--out", tmp_path / "x.csv")
        assert rc == 1
        assert capsys.readouterr().err == "chshlab: error: n must be at least 1, got 0\n"

    def test_n_above_cap_fails(self, tmp_path, capsys):
        out = tmp_path / "x.csv"
        assert run_cli("sample", "--theta", "0.5", "--n", 10**12 + 1, "--out", out) == 1
        assert capsys.readouterr().err == "chshlab: error: n must be at most 1000000000000, got 1000000000001\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "flags", [("--n", "0"), ("--n", "-3"), ("--n", "10", "--theta", "4"), ("--n", "1000000000001")]
    )
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


def first_difference(got, expected):
    """The first line where two CSV texts differ, as (line number, got, expected), or None."""
    pairs = itertools.zip_longest(got.split(b"\n"), expected.split(b"\n"))
    return next(((k, a, b) for k, (a, b) in enumerate(pairs) if a != b), None)


class TestSampleRows:
    """_lines' word tables against % cell by cell and against joined_rows row by row; thresholds fixed before the
    first run."""

    @staticmethod
    def cell_values():
        """About 1.1e6 values: rounding ties and their neighbours, both sides of each power of ten, edges, and
        uniform and log-uniform draws."""
        rng = np.random.default_rng(36)
        # A value of 13 significant digits, the last a 5, is a tie at 12 digits.  Those that are doubles are
        # (2k+1)/2**j with (2k+1)*5**j of 13 digits.
        ties = [rng.integers(-(-(10**12) // 5**j) // 2, 10**13 // 5**j // 2, 5000) * 2 + 1 for j in range(19)]
        ties = [m / 2.0**j for j, m in enumerate(ties)]
        # And odd numerators of every size over every power of two up to 2**59.
        ties.append((rng.integers(0, 2**52, 40_000) * 2 + 1) / 2.0 ** rng.integers(1, 60, 40_000))
        ties = np.concatenate(ties) * rng.choice([-1.0, 1.0], sum(map(len, ties)))
        decades = (10.0 ** np.arange(-5, 13)[:, None] * (1 + np.arange(-20, 21) * 2.0**-52)).ravel()
        edges = [9.99999999999e-05, 99999999999.5, 2.0, 100.0, 1200.0, 0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324]
        edges += [np.nextafter(10, 0), 9.9999999999995, -9.99999999999951]  # their 12 digits round to 10
        return np.concatenate([
            ties, np.nextafter(ties, np.inf), np.nextafter(ties, -np.inf), decades, -decades, edges,
            rng.uniform(-3.0, 3.0, 400_000),
            10.0 ** rng.uniform(-6.0, 13.0, 400_000) * rng.choice([-1.0, 1.0], 400_000),
        ])

    @pytest.mark.parametrize("layout", ["sample", "bounds"])
    def test_cells_match_percent_formatting(self, layout, monkeypatch):
        values, block = self.cell_values(), 2**16
        assert values.size >= 10**6
        fallbacks = percent_cells(monkeypatch)  # the cells _lines' tables do not write
        for start in range(0, values.size, block):
            chunk = values[start : start + block]
            cells = [None] * (2 * chunk.size)
            if layout == "sample":
                # sample's blocks: an index column, the values, four literal cells.
                cells[0::2], cells[1::2] = range(start, start + chunk.size), chunk.tolist()
                expected = (b"%d,%.12g,,,,\n" * chunk.size) % tuple(cells)
                got = b"".join(_lines(np.arange(start, start + chunk.size), chunk, b"", b"", b"", b"", block=block))
            else:
                # bounds' rows: a leading float column, whose first word has no comma, between constants and literals.
                cells[0::2], cells[1::2] = chunk.tolist(), (-chunk).tolist()
                expected = (b"%.12g,2,%.12g,2.82842712475,\n" * chunk.size) % tuple(cells)
                got = b"".join(_lines(chunk, 2.0, -chunk, chsh.CIRELSON_LIMIT, b""))
            assert got == expected, first_difference(got, expected)
        floats = values.size * (1 if layout == "sample" else 2)
        assert floats - sum(fallbacks) >= 5 * 10**5, "cells written by the kernel"

    # Each fallback case (near a tie, below 1e-4, from 10, rounding to 10, not finite, zero, subnormal) between
    # values the kernel writes, whole parts 0 to 9 with and without a fraction in both signs among them; the first
    # five rows hold three fallbacks.
    MIXED = [
        np.nan, 2.0, 1 + 2.0**-12, -0.5, -1e11, 100.0, 1200.0, -0.0, 0.0, 9.99999999999e-05, 1e-4, np.inf, -np.inf,
        5e-324, -2.5e-300, 99999999999.5, np.nextafter(1e11, 0), -9999.99999999995, 12345678.9, 1e300, 2.0 * SQRT2,
        0.1, -1 / 3, 1e10, 123456789012.5, 4.4408920985e-16, 100000000.25, 0.000123456789012,
        np.nextafter(10, 0), 9.9999999999995, -9.99999999999951, 10.0, 9.99999999999, -np.nextafter(10, 0),
        *(sign * (whole + fraction) for sign in (1, -1) for whole in range(10) for fraction in (0, 0.375)),
    ]

    # 9_999 and 99_999_999 start a block with an index of one group fewer than the rest.
    @pytest.mark.parametrize("start", [0, 9, 9_990, 9_999, 10**4, 99_990, 99_999_990, 99_999_999, 10**8, 10**12 - 5])
    def test_rows_match_lines(self, start):
        values = np.array(self.MIXED[: 10**12 - start])
        columns = (np.arange(start, start + values.size), values, b"", b"", b"", b"")
        assert b"".join(_lines(*columns, block=values.size)) == joined_rows(*columns)

    @pytest.mark.parametrize("shift", [-0.5, -1e-12, 1e-12, 0.5])
    def test_bytes_do_not_depend_on_the_decade_guess(self, shift, monkeypatch):
        # log10 only guesses each value's decade; a guess a decade off, or off in its last bits as on another
        # SIMD dispatch, changes no byte: in sample's layout, and in a theta x xi layout of repeated columns.
        decades = (10.0 ** np.arange(-5, 13)[:, None] * (1 + np.arange(-3, 4) * 2.0**-52)).ravel()
        values = np.concatenate([self.MIXED, decades, -decades, np.random.default_rng(7).uniform(-3.0, 3.0, 1000)])
        grid = values[: values.size // 5 * 5].reshape(-1, 5)
        layouts = [
            (np.arange(values.size), values, b"", b"", b"", b""),
            (np.linspace(0.0, 1.0, grid.shape[0])[:, None], np.linspace(-3.0, 3.0, 5), grid),
        ]
        expected = [joined_rows(*columns) for columns in layouts]
        assert [b"".join(_lines(*columns)) for columns in layouts] == expected
        log10 = np.log10
        monkeypatch.setattr(np, "log10", lambda x: log10(x) + shift)
        assert [b"".join(_lines(*columns)) for columns in layouts] == expected


class TestSampleWorkers:
    # 4321 states in blocks of 1000: five blocks, the last one short.
    ARGV = ("sample", "--theta", "0.785", "--n", "4321", "--seed", "3")
    HEADER = b"index,s_sample,sample_min,sample_max,s_qmin,s_qmax\n"

    def expected(self):
        s, lam = haar_sample_s(0.785, 4321, 3), bell_spectrum(0.785)
        rows = _lines(np.arange(s.size), s, b"", b"", b"", b"")
        summary = _lines(b"summary", b"", s.min(), s.max(), lam[0], lam[-1])
        return self.HEADER + b"".join(rows) + b"".join(summary)

    @pytest.mark.parametrize("cpus", [1, 2, 3, None])
    def test_bytes_do_not_depend_on_cpu_count(self, cpus, tmp_path, monkeypatch, started):
        monkeypatch.setattr(chsh, "_HAAR_CHUNK", 1000)
        if cpus is None:
            monkeypatch.delattr(os, "sched_getaffinity")
        else:
            report_cpus(monkeypatch, cpus)
        out = tmp_path / "sample.csv"
        assert run_cli(*self.ARGV, "--out", out) == 0
        assert out.read_bytes() == self.expected()
        # This process renders a share of the blocks, so it forks one worker fewer than it uses CPUs.
        assert len(started) == (cpus - 1 if cpus else 0)
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("cpus", [1, 2, 3])
    def test_failing_block_is_one_error_line(self, cpus, tmp_path, monkeypatch, capfd):
        # The forked workers inherit the patch; with 2 or 3 CPUs, block 2 fails on a worker.
        monkeypatch.setattr(chsh, "_HAAR_CHUNK", 1000)
        report_cpus(monkeypatch, cpus)
        draw = cli.haar_block

        def fail_on_block_two(lam, seed, start, count):
            if start == 2000:
                raise ValueError("block 2 cannot be drawn")
            return draw(lam, seed, start, count)

        monkeypatch.setattr(cli, "haar_block", fail_on_block_two)
        out = tmp_path / "sample.csv"
        out.write_bytes(b"old,bytes\n")
        assert run_cli(*self.ARGV, "--out", out) == 1
        # capfd also sees what the workers write to the inherited stderr.
        assert capfd.readouterr() == ("", "chshlab: error: block 2 cannot be drawn\n")
        assert out.read_bytes() == b"old,bytes\n"
        assert list(tmp_path.iterdir()) == [out]
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("library", ["missing", "without mallopt", "with mallopt"])
    def test_workers_run_whether_or_not_mallopt_can_be_set(self, library, tmp_path, monkeypatch, started):
        # Each forked worker inherits the patch; the mallopt stand-in appends its arguments to a file.
        calls = tmp_path / "mallopt.txt"

        def mallopt(param, value):
            with open(calls, "a") as fh:
                fh.write(f"{param} {value}\n")

        def cdll(name):
            if library == "missing":
                raise OSError(f"{name}: cannot open shared object file")
            return SimpleNamespace(mallopt=mallopt) if library == "with mallopt" else SimpleNamespace()

        monkeypatch.setattr(chsh, "_HAAR_CHUNK", 1000)
        monkeypatch.setattr(ctypes, "CDLL", cdll)
        report_cpus(monkeypatch, 3)
        out = tmp_path / "sample.csv"
        assert run_cli(*self.ARGV, "--out", out) == 0
        assert out.read_bytes() == self.expected()
        assert len(started) == 2 and multiprocessing.active_children() == []
        # M_TRIM_THRESHOLD (-1) and M_MMAP_THRESHOLD (-3), both 32 MiB, once in each worker.
        expected = "-1 33554432\n-3 33554432\n" * 2 if library == "with mallopt" else None
        assert (calls.read_text() if calls.exists() else None) == expected

    def test_interrupted_write_ends_every_worker(self, tmp_path, monkeypatch, started):
        # On 3 CPUs this process renders blocks 0 and 3 of five, and draws block 3 while worker 2 writes block 2; an
        # interrupt then finds blocks 0 and 1 written and block 2 in part or whole.  Every worker has exited, so none
        # writes any more, when the temporary file is removed.
        monkeypatch.setattr(chsh, "_HAAR_CHUNK", 1000)
        report_cpus(monkeypatch, 3)
        draw, unlink, parent = cli.haar_block, os.unlink, os.getpid()

        def interrupted_on_block_three(lam, seed, start, count):
            if start == 3000 and os.getpid() == parent:
                raise KeyboardInterrupt
            return draw(lam, seed, start, count)

        removed = []

        def recorded(path):
            # What the temporary file holds when it is removed, and whether every worker had exited by then.
            removed.append((Path(path).read_bytes(), [p.exitcode is not None for p in started]))
            unlink(path)

        monkeypatch.setattr(cli, "haar_block", interrupted_on_block_three)
        monkeypatch.setattr(os, "unlink", recorded)
        out = tmp_path / "sample.csv"
        # The traceback holds every frame of the run, and with them the block generator, until the test ends.
        with pytest.raises(KeyboardInterrupt) as interrupt:
            run_cli(*self.ARGV, "--out", out)
        [(written, exited)] = removed
        assert self.expected().startswith(written) and written.count(b"\n") >= 2001 and exited == [True, True]
        assert len(started) == 2 and all(p.exitcode is not None for p in started)
        assert multiprocessing.active_children() == []
        assert list(tmp_path.iterdir()) == []
        assert interrupt.traceback

    @pytest.mark.parametrize("when", ["during its turn", "before its turn"])
    def test_worker_killed_is_one_error_line(self, when, tmp_path, monkeypatch, capfd, started, alarm):
        # On 2 CPUs worker 1 renders blocks 1 and 3.  It is killed as it writes block 3, while this process waits
        # for its reply, or as soon as it has drawn block 3, while this process draws block 2 and waits for its death.
        monkeypatch.setattr(chsh, "_HAAR_CHUNK", 1000)
        report_cpus(monkeypatch, 2)
        draw, write_all = cli.haar_block, cli._write_all

        def killed_after_drawing_block_three(lam, seed, start, count):
            values = draw(lam, seed, start, count)
            if start == 3000:
                os.kill(os.getpid(), signal.SIGKILL)
            if start == 2000:  # on this process
                multiprocessing.connection.wait([started[0].sentinel])
            return values

        def killed_writing_block_three(fd, data):
            if data.startswith(b"3000,"):
                os.kill(os.getpid(), signal.SIGKILL)
            write_all(fd, data)

        if when == "before its turn":
            monkeypatch.setattr(cli, "haar_block", killed_after_drawing_block_three)
        else:
            monkeypatch.setattr(cli, "_write_all", killed_writing_block_three)
        out = tmp_path / "sample.csv"
        out.write_bytes(b"old,bytes\n")
        assert run_cli(*self.ARGV, "--out", out) == 1
        assert capfd.readouterr() == ("", "chshlab: error: worker 1 exited before sending result 3\n")
        assert out.read_bytes() == b"old,bytes\n"
        assert list(tmp_path.iterdir()) == [out]
        assert len(started) == 1 and started[0].exitcode == -signal.SIGKILL
        assert multiprocessing.active_children() == []

    def test_fifo_gets_the_bytes_of_a_file(self, tmp_path, monkeypatch, started, alarm):
        # The workers write to the FIFO as this process does; a reader process copies what they write to a file.
        monkeypatch.setattr(chsh, "_HAAR_CHUNK", 1000)
        report_cpus(monkeypatch, 3)
        fifo, copy = tmp_path / "out.fifo", tmp_path / "copy.csv"
        os.mkfifo(fifo)
        reader = subprocess.Popen([sys.executable, "-c", FIFO_COPY, fifo, copy])
        try:
            assert run_cli(*self.ARGV, "--out", fifo) == 0
        finally:
            assert reader.wait(timeout=30) == 0
        assert copy.read_bytes() == self.expected()
        assert len(started) == 2 and multiprocessing.active_children() == []

    def test_no_block_crosses_a_pipe(self, tmp_path, monkeypatch, started):
        # Each renderer writes its own blocks; this process receives only the turns' replies, each block's min and
        # max, where it received every block's bytes when the workers sent them over their pipes.
        report_cpus(monkeypatch, 3)
        received, parent = [], os.getpid()
        connection = multiprocessing.connection.Connection
        recv, recv_bytes = connection.recv, connection.recv_bytes

        def counted(receive, size):
            def wrapper(self, *args):
                result = receive(self, *args)
                if os.getpid() == parent:
                    received.append(size(result))
                return result

            return wrapper

        monkeypatch.setattr(connection, "recv", counted(recv, lambda result: len(pickle.dumps(result))))
        monkeypatch.setattr(connection, "recv_bytes", counted(recv_bytes, len))
        out = tmp_path / "sample.csv"
        assert run_cli("sample", "--theta", "0.785", "--n", 100_000, "--seed", 3, "--out", out) == 0
        assert out.stat().st_size > 2 * 10**6
        assert len(started) == 2 and 0 < sum(received) < 64 * 1024, f"{sum(received)} bytes in {len(received)}"

    def test_closing_joins_every_worker_of_an_endless_range(self, tmp_path, monkeypatch, started):
        # A list of 10**12 tasks cannot be built; the workers take lazy slices of the range.
        report_cpus(monkeypatch, 3)
        out = tmp_path / "out.txt"
        with open(out, "wb") as fh:
            results = cli._ordered(lambda task: (b"%d\n" % task, (task, os.getpid())), range(10**12), fh.fileno())
            (first, first_pid), (second, second_pid) = next(results), next(results)
            results.close()
        assert (first, second) == (0, 1) and out.read_bytes() == b"0\n1\n"
        assert first_pid == os.getpid() and second_pid == started[0].pid
        assert len(started) == 2 and all(p.exitcode is not None for p in started)
        assert multiprocessing.active_children() == []

    def test_worker_that_dies_is_an_error(self, tmp_path, monkeypatch, started):
        # The last worker started dies: its pipe must still show end of file.
        report_cpus(monkeypatch, 3)

        def render(task):
            if task == 5:
                os._exit(3)  # only ever on a forked worker: three CPUs and seven tasks
            return b"%d\n" % task, task

        out = tmp_path / "out.txt"
        with open(out, "wb") as fh:
            results = cli._ordered(render, range(7), fh.fileno())
            assert [next(results) for _ in range(5)] == [0, 1, 2, 3, 4]
            with pytest.raises(ChildProcessError, match="worker 2 exited before sending result 5"):
                next(results)
        assert out.read_bytes() == b"0\n1\n2\n3\n4\n"
        assert len(started) == 2 and started[0].exitcode is not None and started[1].exitcode == 3
        assert multiprocessing.active_children() == []

    def test_one_task_renders_in_process(self, tmp_path, monkeypatch, started):
        report_cpus(monkeypatch, 3)
        out = tmp_path / "out.txt"
        with open(out, "wb") as fh:
            assert list(cli._ordered(lambda task: (b"row\n", (task, os.getpid())), range(1), fh.fileno())) == [
                (0, os.getpid())
            ]
        assert out.read_bytes() == b"row\n"
        assert started == []


class TestErrorHandling:
    @pytest.mark.parametrize(
        "command",
        [("surface",), ("sweep-xi",), ("sweep-theta",), ("bounds",), ("sample", "--theta", "0.5")],
    )
    def test_noise_flags_only_on_simulate(self, command, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli(*command, "--visibility", "0.5", "--out", tmp_path / "x.csv")
        assert exc.value.code == 2
        assert "--visibility" in capsys.readouterr().err
        assert not (tmp_path / "x.csv").exists()

    def test_unwritable_path(self, tmp_path, capsys):
        # The message names the path asked for, not the temporary file beside it.
        missing_dir = tmp_path / "absent" / "out.csv"
        rc = run_cli("bounds", "--theta-grid", "0:1:3", "--out", missing_dir)
        assert rc == 1
        message = f"cannot write output file {str(missing_dir)!r}: No such file or directory"
        assert capsys.readouterr() == ("", f"chshlab: error: {message}\n")

    def test_theta_grid_outside_domain(self, tmp_path, capsys):
        rc = run_cli("bounds", "--theta-grid", "0:7:3", "--out", tmp_path / "x.csv")
        assert rc == 1
        assert "theta" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, message",
        [
            (("sweep-xi", "--theta-list", "0,,1"), "angle list '0,,1' contains an empty or non-numeric entry"),
            (("surface", "--xi-grid=-1e308:1e308:2"), "grid '-1e308:1e308:2' must span a finite interval"),
        ],
    )
    def test_bad_angle_text_is_one_error_line(self, argv, message, tmp_path, capsys):
        assert run_cli(*argv, "--out", tmp_path / "x.csv") == 1
        assert capsys.readouterr() == ("", f"chshlab: error: {message}\n")
        assert not (tmp_path / "x.csv").exists()

    def test_allocation_failure_is_one_error_line(self, monkeypatch, tmp_path, capsys):
        # numpy's message for a 1e10-cell surface; raised here so that no test allocates a large array.
        message = "Unable to allocate 74.5 GiB for an array with shape (100000, 100000) and data type float64"

        def refuse(*_):
            raise MemoryError(message)

        monkeypatch.setattr(cli, "s_parameter", refuse)
        argv = ("surface", "--theta-grid", "0:3:100000", "--xi-grid", "0:3:100000", "--out", tmp_path / "x.csv")
        assert run_cli(*argv) == 1
        assert capsys.readouterr() == ("", f"chshlab: error: {message}\n")
        assert not (tmp_path / "x.csv").exists()

    def test_bad_grid_syntax(self, tmp_path, capsys):
        rc = run_cli("surface", "--theta-grid", "0::5", "--out", tmp_path / "x.csv")
        assert rc == 1
        capsys.readouterr()

    def test_failed_write_leaves_no_partial_file(self, tmp_path):
        def rows_then_failure():
            for i in range(10_000):
                yield b"%d,0.5\n" % i
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
        text = b"".join(_lines(np.array(self.EDGES)))
        assert text == "".join(format(v, ".12g") + "\n" for v in self.EDGES).encode()

    def test_int_column(self):
        ints = np.array([0, 7, 10**11, 999_999_999_999])
        text = b"".join(_lines(ints, 0.5))
        assert text == "".join(f"{format(int(i), '.12g')},0.5\n" for i in ints).encode()

    def test_int_cells_at_the_digit_limit(self):
        # A column of as many ints as rows holds them in [0, 10**12), the digits _CELL writes in full.
        edges = [10**12 - 1, 0]
        columns = [np.array([v]) for v in edges] + [np.array(edges)]
        columns += [np.array([v], dtype=np.uint64) for v in edges] + [np.array(edges, dtype=np.uint64)]
        for ints in columns:
            assert b"".join(_lines(ints)) == "".join(format(int(i), ".12g") + "\n" for i in ints).encode()

    def test_broadcast_constants_and_literal_cells(self):
        rows = b"".join(_lines(np.array([[0.25], [1.5]]), np.array([1.0, -0.0, 3e-7]), b"", 2.0, b"x"))
        expected = [f"{o:.12g},{i:.12g},,2,x\n" for o in (0.25, 1.5) for i in (1.0, -0.0, 3e-7)]
        assert rows == "".join(expected).encode()

    def test_row_order_and_count_across_blocks(self):
        n = 3 * cli._BLOCK_ROWS + 5
        values = np.linspace(0.0, 1.0, n)
        lines = b"".join(_lines(np.arange(n), values)).splitlines()
        assert lines == [f"{i},{v:.12g}".encode() for i, v in enumerate(values.tolist())]

    def test_percent_in_literal_cells(self):
        # A literal % is a cell, not a conversion, also when the template repeats across a block.
        assert b"".join(_lines(np.array([1.0]), b"50%")) == b"1,50%\n"
        n = cli._BLOCK_ROWS + 3
        text = b"".join(_lines(np.arange(n), b"%d", b"%%s"))
        assert text == "".join(f"{i},%d,%%s\n" for i in range(n)).encode()

    def test_literal_cells_are_bytes(self):
        # A str column is no literal: it is taken as a number, which it is not.
        for literal in ("", "summary", "50%"):
            with pytest.raises(TypeError):
                list(_lines(np.arange(3), literal))

    @pytest.mark.parametrize("block", [None, 1, 5])
    def test_matches_per_row_reference(self, block, monkeypatch):
        if block is not None:
            monkeypatch.setattr(cli, "_BLOCK_ROWS", block)
        n = cli._BLOCK_ROWS
        values = np.random.default_rng(5).normal(size=(5, 5, 3)) * 10.0 ** np.arange(-6, 9, 1).reshape(5, 1, 3)
        angles = np.array(self.EDGES[:5])
        # Integer columns written in full (strictly inside +-10**12) and not, as int64 and uint64.  They are repeated
        # columns, formatted by %, but kernel columns at _BLOCK_ROWS 1, which hold ints in [0, 10**12) only.
        ints_in, ints_out = np.array([10**12 - 1, 1 - 10**12, 0]), np.array([10**12, -5, -(10**12)])
        uints_in, uints_out = np.array([10**12 - 1, 0], np.uint64), np.array([10**12, 2**64 - 1], np.uint64)
        if n == 1:
            ints_in, ints_out, uints_out = np.array([10**12 - 1, 7, 0]), np.array([10**4, 0, 10**8 - 1]), uints_in
        cases = [
            (np.array([[0.25], [1.5], [-0.0]]), np.array([1.0, 3e-7, math.pi, -1.0 / 3.0]), b"50%"),
            # The simulate layout: theta, xi, s_hat and std_err per replication, s_ideal per setting.
            (angles[:, None, None], angles[None, :, None], values, values**2, values[:, :, :1] - 1.0),
            (np.array([2.5]), np.arange(3), b""),
            *((np.linspace(-1.0, 1.0, m)[:, None], np.array([0.5, -2.0]), 2.0) for m in (1, n, n + 1)),
            (ints_in[:, None], ints_out, ints_in, np.uint64(2**64 - 1), b"%d"),
            (uints_in[:, None], uints_out, np.int64(10**12 - 1), np.int64(-(10**12)), ints_out[:2, None]),
            # Calls of literal cells and constants only: one row, whose % cells are written as they are.
            (b"50%",),
            (b"a", 2.0),
            *((b"%", np.asarray(v), b"50%") for v in (-0.0, math.nan, math.inf, 2.0 * SQRT2, 10**12 - 1)),
        ]
        # Each cell the word tables do not write, at the first and last row of a block and across a block boundary:
        # below 1e-4, from 10, a tie at 12 digits and NaN in a leading float column.  Then the ends of the digits'
        # range, 10**12 - 1 and 0, among ints of one and two digit groups after a literal cell.
        edges = [0, n - 1, n, 2 * n]
        for cell in (5e-5, -12.5, 4097 / 2**12, math.nan):
            column = np.linspace(0.1, 2.0, 2 * n + 1)
            column[edges] = cell
            cases.append((column, 2.0, b"x"))
        for cell in (10**12 - 1, 0):
            column = np.arange(2 * n + 1)
            column[edges] = cell
            cases.append((b"i", column, np.linspace(-1.0, 1.0, 2 * n + 1)))
        # The longest texts: ",-1.23456789012e-308" fills a float cell's 5 words after another float column, and
        # the largest int64 and uint64 the digits write fill their 3 groups after a literal cell.
        tiny = -1.23456789012e-308
        cases.append((
            np.array([0.5, tiny, 2.0]), np.array([tiny, -1.5, tiny]), b"x", np.array([10**12 - 1, 0, 7]),
            b"y", np.array([10**12 - 1, 10**8, 1], np.uint64),
        ))
        # Misfits in the first and last float columns of a row, the cells between written by the tables.
        cases.append((np.array([1e20, 0.25]), np.array([0.5, np.nan]), np.array([-3.125, 7.0]), np.array([-0.0, 5e-5])))
        for columns in cases:
            assert b"".join(_lines(*columns)) == joined_rows(*columns)

    # The cells an output leaves to %, counted when the bound was set: surface 32 of 32,761 s cells, bounds 3 of
    # 543 float cells and sample 111 of 100,000.  A change that sends more cells to % fails here even when its bytes
    # still match.
    @pytest.mark.parametrize(
        "argv, bound",
        [(("surface",), 32), (("bounds",), 3), (("sample", "--theta", "0.785", "--n", "100000"), 125)],
    )
    def test_rows_written_by_percent_are_few(self, argv, bound, tmp_path, monkeypatch):
        report_cpus(monkeypatch, 1)  # so that sample renders every block in this process
        fallbacks = percent_cells(monkeypatch)
        assert run_cli(*argv, "--out", tmp_path / "out.csv") == 0
        assert 0 < sum(fallbacks) <= bound

    def test_percent_writes_a_cell_not_its_row(self, monkeypatch):
        # One NaN among three float columns.
        cells = percent_cells(monkeypatch)
        columns = (np.array([0.5, 1.0]), np.array([np.nan, 2.0]), np.array([-0.75, 3.5]))
        assert b"".join(_lines(*columns)) == joined_rows(*columns)
        assert sum(cells) == 1

    def test_a_repeated_column_is_formatted_once_per_value(self):
        calls = []

        class Number:
            def __init__(self, value):
                self.value = value

            def __float__(self):
                calls.append(self.value)
                return self.value

        column = np.array([Number(0.5), Number(-1.25), Number(3.0)], dtype=object)[:, None]
        text = b"".join(_lines(column, np.arange(2000)))
        assert text == "".join(f"{v:.12g},{i}\n" for v in (0.5, -1.25, 3.0) for i in range(2000)).encode()
        assert calls == [0.5, -1.25, 3.0]

    def test_memory_stays_at_about_one_block(self):
        # A column of more than _BLOCK_ROWS values is formatted block by block; formatted whole, the strings
        # of this one would hold about 2 MB.
        column = np.linspace(0.0, 1.0, 20_000)[:, None]
        tracemalloc.start()
        try:
            rows = sum(data.count(b"\n") for data in _lines(column, np.zeros(2)))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rows == 40_000
        assert peak < 2**20, f"tracemalloc peak {peak} bytes"


class TestBlockSizes:
    # Each command on a small grid: its argv, the rows of its main table and a block size dividing them.
    CASES = {
        "surface": (("surface", "--theta-grid", "0:3:7", "--xi-grid", "0:3:6"), 42, 21),
        "sweep-xi": (("sweep-xi", "--theta-list", "0.1,0.2", "--xi-grid", "0:3:9"), 18, 9),
        "sweep-theta": (("sweep-theta", "--xi-list", "0.1,1.2,2.9", "--theta-grid", "0.01:3.1:5"), 15, 5),
        "bounds": (("bounds", "--theta-grid", "0:3:8"), 8, 4),
        "simulate": (
            ("simulate", "--theta-list", "0.1,0.7", "--xi-list", "0.2", "--pairs", "1000", "--replications", "3"),
            6,
            3,
        ),
        # n rows, then the summary row.
        "sample": (("sample", "--theta", "0.7", "--n", "12", "--seed", "4"), 12, 4),
    }

    @pytest.mark.parametrize("block", ["one", "divisor"])
    @pytest.mark.parametrize("name", sorted(CASES))
    def test_bytes_do_not_depend_on_block_size(self, name, block, tmp_path, monkeypatch, started):
        argv, rows, divisor = self.CASES[name]
        assert rows % divisor == 0 and rows > divisor
        assert run_cli(*argv, "--out", tmp_path / "default.csv") == 0
        default = (tmp_path / "default.csv").read_bytes()
        assert default.count(b"\n") == 1 + rows + (name == "sample")
        monkeypatch.setattr(cli, "_BLOCK_ROWS", 1 if block == "one" else divisor)
        monkeypatch.setattr(chsh, "_HAAR_CHUNK", 1 if block == "one" else divisor)
        for cpus in (1, 2, 3):
            report_cpus(monkeypatch, cpus)
            started.clear()
            assert run_cli(*argv, "--out", tmp_path / "blocked.csv") == 0
            assert (tmp_path / "blocked.csv").read_bytes() == default
            # Only sample forks: one worker per CPU but the one this process renders on.
            assert len(started) == (cpus - 1 if name == "sample" else 0)

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_rows_reach_the_file_as_bytes(self, name, tmp_path, monkeypatch, started):
        # Every chunk is bytes, written as it is: _write_rows gets each command's but sample's; sample's blocks go to
        # _write_all, from this process and its one worker in turn, and only its summary row goes through the file.
        argv, rows, divisor = self.CASES[name]
        monkeypatch.setattr(cli, "_BLOCK_ROWS", divisor)
        monkeypatch.setattr(chsh, "_HAAR_CHUNK", divisor)
        report_cpus(monkeypatch, 2)
        chunks, write_rows, write_all, log = [], cli._write_rows, cli._write_all, tmp_path / "blocks.log"

        def recorded(path, header, lines):
            write_rows(path, header, (chunks.append(chunk) or chunk for chunk in lines))

        def logged(fd, data):
            # A worker's chunks reach this process only through the log, in the order of the turns.
            with open(log, "a") as fh:
                fh.write(f"{os.getpid()} {type(data).__name__} {len(data)}\n")
            write_all(fd, data)

        monkeypatch.setattr(cli, "_write_rows", recorded)
        monkeypatch.setattr(cli, "_write_all", logged)
        out = tmp_path / "out.csv"
        assert run_cli(*argv, "--out", out) == 0
        body = out.read_bytes().split(b"\n", 1)[1]
        if name == "sample":
            blocks = [line.split() for line in log.read_text().splitlines()]
            assert [(int(pid), kind) for pid, kind, _ in blocks] == [
                (os.getpid() if i % 2 == 0 else started[0].pid, "bytes") for i in range(rows // divisor)
            ]
            # The blocks' bytes are the output's rows up to the summary row, which goes through the file.
            assert body.index(b"summary,") == sum(int(size) for *_, size in blocks)
        else:
            assert not log.exists() and len(chunks) == rows // divisor
            assert all(type(chunk) is bytes for chunk in chunks), [type(chunk) for chunk in chunks]
            assert body == b"".join(chunks)
        assert len(started) == (1 if name == "sample" else 0)


class TestSampleMemory:
    def test_rows_are_written_in_bounded_blocks(self, tmp_path):
        # cmd_sample holds one block of samples and of rows at a time, so its peak does not grow with n: 35.2 and
        # 35.6 MiB now that this process renders a share of the blocks (32.5 and 32.6 MiB when it only relayed the
        # workers' blocks), where keeping every block's values peaked at 34.7 and 48.5 MiB.
        peaks = []
        for n in (200_000, 2_000_000):
            out = tmp_path / "sample.csv"
            peaks.append(cli_peak_mib("sample", "--theta", 0.785, "--n", n, "--seed", 1, "--out", out))
            with open(out, "rb") as fh:
                fh.seek(-200, os.SEEK_END)
                *_, final_row, summary = fh.read().decode().splitlines()
            samples = haar_sample_s(0.785, n, 1)
            assert final_row.startswith(f"{n - 1},")
            assert summary.split(",")[:4] == ["summary", "", f"{samples.min():.12g}", f"{samples.max():.12g}"]
        assert max(peaks) < 42 and abs(peaks[1] - peaks[0]) < 1, f"ru_maxrss {peaks} MiB"

    @pytest.mark.skipif(
        len(getattr(os, "sched_getaffinity", lambda pid: ())(0)) < 2, reason="on one CPU sample forks no worker"
    )
    def test_workers_keep_their_heap(self, tmp_path):
        # The workers keep their heap between blocks, so their page faults and peak do not grow with n: on two CPUs,
        # where one worker renders half the blocks, 1,813 and 1,955 faults, 28.9 and 29.2 MiB; two workers took
        # 3,282 and 3,493 faults, where glibc's heap trim after each block took them 16,489 and 148,752.
        usage = [
            cli_worker_usage("sample", "--theta", 0.785, "--n", n, "--seed", 1, "--out", tmp_path / "sample.csv")
            for n in (200_000, 2_000_000)
        ]
        (small_faults, small_peak), (large_faults, large_peak) = usage
        assert large_faults - small_faults < 5000 and abs(large_peak - small_peak) < 1, f"(ru_minflt, MiB) {usage}"


class TestGridValidation:
    def test_grid_spec_invariants(self):
        with pytest.raises(ValueError, match="must be below stop"):
            parse_grid("1:0:5")
        # The count is checked before the order of the endpoints.
        for bad in ("0:1:1", "1:0:-3"):
            with pytest.raises(ValueError, match=f"^grid count must be at least 2, got {bad.split(':')[2]}$"):
                parse_grid(bad)
        with pytest.raises(ValueError, match="finite"):
            parse_grid("0:nan:5", degrees=True)
