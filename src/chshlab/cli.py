"""Command-line front end: deterministic CSV sweeps, bound tables, and simulated runs.

Angles are radians on input (a --degrees flag converts) and always radians in
the output files.  Every subcommand is a pure function of its flags and seed,
so reruns produce byte-identical CSVs.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import math
import os
import shutil
import signal
import sys

import numpy as np

from . import chsh
from .chsh import (
    CIRELSON_LIMIT, CLASSICAL_LIMIT, _whole, bell_spectrum, haar_block, quantum_bounds, s_parameter,
)
from .expsim import NoiseModel, estimate_s
from .rng import derive_seed

DEFAULT_GRID_COUNT = 181
DEFAULT_ANGLE_LIST = (0.0, math.pi / 8, math.pi / 4, 3 * math.pi / 8, math.pi / 2)

_CONFIG_KEYS = tuple(field.name for field in dataclasses.fields(NoiseModel))


_CELL = "%.12g"
_BLOCK_ROWS = 1024


def _cell(a: np.ndarray) -> str:
    """%d for an integer column that _CELL would write in full (fewer than 13 digits), else _CELL."""
    if a.dtype.kind in "iu" and a.size and -(10**12) < a.min() and a.max() < 10**12:
        return "%d"
    return _CELL


def _lines(*columns):
    """CSV text of the broadcast columns, yielded _BLOCK_ROWS whole lines at a time.

    A string column is a literal cell, the same on every row; a % in it is
    escaped as %% in the row template.  Every other column is numeric,
    broadcasts against the rest and is formatted with _CELL: 12 significant
    digits, as ``format(value, ".12g")`` gives them.  An integer column whose
    values all lie strictly between -10**12 and 10**12 is written with %d,
    which gives the same bytes faster; its range comes from min and max, so
    no copy of the column is made.  Rows run in C order of the broadcast
    shape, so the first axis runs slowest.  A block of k rows is one %
    operation: the row template repeated k times, applied to the block's
    cells interleaved row by row into one flat list.

    No value is formatted twice.  A column with fewer values than there are
    rows, and at most _BLOCK_ROWS of them, such as a constant, is formatted
    once per value, with the spec its own values choose, and its texts fill
    %s cells; so memory stays at about one block of cells per column.  Every
    other column is formatted block by block.  Each value gets the same spec
    on every path, so the bytes do not depend on the path.
    """
    columns = [c if isinstance(c, str) else np.asarray(c) for c in columns]
    shape = np.broadcast_shapes(*(c.shape for c in columns if not isinstance(c, str)))
    size = math.prod(shape)
    specs, flats = [], []
    for c in columns:
        if isinstance(c, str):
            specs.append(c.replace("%", "%%"))
            continue
        spec = _cell(c)
        if c.size < size and c.size <= _BLOCK_ROWS:
            spec, c = "%s", np.array([spec % v for v in c.ravel().tolist()], dtype=object).reshape(c.shape)
        specs.append(spec)
        flats.append(np.broadcast_to(c, shape).flat)
    template, width = ",".join(specs) + "\n", len(flats)
    for start in range(0, size, _BLOCK_ROWS):
        k = min(_BLOCK_ROWS, size - start)
        cells = [None] * (k * width)
        for c, f in enumerate(flats):
            cells[c::width] = f[start : start + k].tolist()
        yield (template * k) % tuple(cells)


def _write_rows(path: str, header: tuple[str, ...], lines) -> None:
    """Write the header row and then ``lines`` to ``path``; a regular file is replaced atomically.

    ``lines`` is an iterable of strings, each holding whole CSV lines such as
    ``_lines`` yields; it is consumed as it is written, so memory stays flat.
    When ``path`` is absent or (through any symlinks) a regular file, the CSV
    is written under a temporary name beside the resolved file, which is then
    renamed into place with the old file's permission bits.  An error or
    interrupt part-way leaves the old file as it was and removes the temporary
    file, so a truncated CSV never appears under the final name.  Any other
    target, such as a device, FIFO or pipe, is written directly.
    """
    exists = os.path.exists(path)
    atomic = not exists or os.path.isfile(path)
    target = os.path.realpath(path) if atomic else path
    tmp = f"{target}.{os.getpid()}.tmp" if atomic else None
    try:
        try:
            with open(tmp or target, "w", encoding="ascii", newline="") as fh:
                fh.write(",".join(header) + "\n")
                fh.writelines(lines)
            if atomic:
                if exists:
                    shutil.copymode(target, tmp)
                os.replace(tmp, target)
        finally:
            if atomic and os.path.exists(tmp):
                os.unlink(tmp)
    except OSError as exc:
        raise OSError(f"cannot write output file {path!r}: {exc}") from exc


def _render_share(render, tasks, conn) -> None:
    """A worker of _ordered: send render(task) for each task in order, or the first exception, then return."""
    # An interrupt reaches the whole process group; the main process handles it and ends this worker.
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    try:
        for task in tasks:
            conn.send(render(task))
    except Exception as exc:
        conn.send(exc)


def _ordered(render, tasks: range):
    """Yield ``render(task)`` for each task of the range ``tasks``, in order.

    On w = min(CPUs in os.sched_getaffinity(0), len(tasks)) forked workers,
    worker k renders tasks[k::w] and sends each result over its own one-way
    pipe, where it waits until the main thread reads it: result i comes from
    worker i % w, and a worker holds about one result in flight.  A worker's
    exception is sent in place of its result and raised here.  Being forked,
    the workers see ``render`` and this process's state without pickling, but
    no other thread of it.  On one CPU, for one task, or where
    os.sched_getaffinity does not exist, this process renders every task.
    However the generator ends, every worker is ended and joined first.
    """
    getaffinity = getattr(os, "sched_getaffinity", None)
    w = min(len(getaffinity(0)), len(tasks)) if getaffinity is not None else 1
    if w < 2:
        yield from map(render, tasks)
        return
    import multiprocessing

    context = multiprocessing.get_context("fork")
    conns, workers = [], []
    try:
        for k in range(w):
            receiver, sender = context.Pipe(duplex=False)
            conns.append(receiver)
            workers.append(context.Process(target=_render_share, args=(render, tasks[k::w], sender)))
            workers[-1].start()
            # Only the worker keeps the sending end, so its exit shows here as end of file.
            sender.close()
        for i in range(len(tasks)):
            try:
                result = conns[i % w].recv()
            except EOFError:
                raise ChildProcessError(f"worker {i % w} exited before sending result {i}") from None
            if isinstance(result, BaseException):
                raise result
            yield result
    finally:
        for worker in workers:
            worker.terminate()
        for worker in workers:
            worker.join()
        for conn in conns:
            conn.close()


def parse_grid(text: str | None, degrees: bool = False) -> np.ndarray:
    """Points of the inclusive grid start:stop:count, from degrees when asked; None gives 0:pi:181."""
    if text is None:
        return np.linspace(0.0, math.pi, DEFAULT_GRID_COUNT)
    parts = text.split(":")
    if len(parts) != 3:
        raise ValueError(f"grid {text!r} is not of the form start:stop:count")
    try:
        start, stop, count = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError as exc:
        raise ValueError(f"grid {text!r} is not of the form start:stop:count") from exc
    if degrees:
        start, stop = math.radians(start), math.radians(stop)
    # Also refuses finite endpoints whose difference overflows, which linspace would turn into NaN points.
    if not math.isfinite(stop - start):
        raise ValueError(f"grid {text!r} must span a finite interval")
    if count < 2:
        raise ValueError(f"grid count must be at least 2, got {count}")
    if not start < stop:
        raise ValueError(f"grid start {start!r} must be below stop {stop!r}")
    return np.linspace(start, stop, count)


def parse_angle_list(text: str | None, degrees: bool = False) -> tuple[float, ...]:
    """Parse a nonempty comma-separated list of angles; None gives DEFAULT_ANGLE_LIST."""
    if text is None:
        return DEFAULT_ANGLE_LIST
    try:
        # float() ignores the whitespace around an entry and refuses an empty one.
        values = tuple(float(item) for item in text.split(","))
    except ValueError as exc:
        raise ValueError(f"angle list {text!r} contains an empty or non-numeric entry") from exc
    if degrees:
        values = tuple(math.radians(v) for v in values)
    return values


def load_noise_config(path: str) -> dict[str, float]:
    """Read `key = value` lines; keys limited to the noise-model fields, each given at most once."""
    out: dict[str, float] = {}
    try:
        with open(path, "r", encoding="utf-8-sig") as fh:
            lines = fh.readlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise OSError(f"cannot read config file {path!r}: {exc}") from exc
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected `key = value`, got {raw.strip()!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        if key not in _CONFIG_KEYS:
            raise ValueError(f"{path}:{lineno}: unknown key {key!r}")
        if key in out:
            raise ValueError(f"{path}:{lineno}: duplicate key {key!r}")
        try:
            out[key] = float(value.strip())
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: non-numeric value for {key!r}") from exc
    return out


def resolve_noise(args: argparse.Namespace) -> NoiseModel:
    """Noise model from defaults, then config file, then explicit flags, whose angles main has put in radians."""
    fields = load_noise_config(args.config) if args.config is not None else {}
    for key in _CONFIG_KEYS:
        value = getattr(args, key)
        if value is not None:
            fields[key] = value
    return NoiseModel(**fields)


def cmd_surface(args: argparse.Namespace) -> None:
    thetas, xis = args.theta_grid[:, None], args.xi_grid
    _write_rows(args.out, ("theta", "xi", "s"), _lines(thetas, xis, s_parameter(thetas, xis)))


def cmd_sweep_xi(args: argparse.Namespace) -> None:
    thetas, xis = np.asarray(args.theta_list)[:, None], args.xi_grid
    header = ("theta", "xi", "s", "classical_limit", "cirelson_limit")
    _write_rows(args.out, header, _lines(thetas, xis, s_parameter(thetas, xis), CLASSICAL_LIMIT, CIRELSON_LIMIT))


def cmd_sweep_theta(args: argparse.Namespace) -> None:
    xis, thetas = np.asarray(args.xi_list)[:, None], args.theta_grid
    env = quantum_bounds(thetas)
    rows = _lines(xis, thetas, s_parameter(thetas, xis), env.s_min, env.s_max)
    _write_rows(args.out, ("xi", "theta", "s", "s_qmin", "s_qmax"), rows)


def cmd_bounds(args: argparse.Namespace) -> None:
    thetas = args.theta_grid
    q = quantum_bounds(thetas).s_max
    rows = _lines(thetas, CLASSICAL_LIMIT, q, CIRELSON_LIMIT, CIRELSON_LIMIT - q)
    _write_rows(args.out, ("theta", "classical_bound", "quantum_max", "cirelson", "superquantum_gap"), rows)


def cmd_simulate(args: argparse.Namespace) -> None:
    noise, replications = resolve_noise(args), _whole(args.replications, "replications", 1)
    i, j, rep = np.ix_(range(len(args.theta_list)), range(len(args.xi_list)), range(replications))
    thetas, xis = np.asarray(args.theta_list)[i], np.asarray(args.xi_list)[j]
    est = estimate_s(thetas, xis, args.pairs, noise, derive_seed(args.seed, i, j, rep))
    rows = _lines(thetas, xis, est.s_hat, est.std_err, s_parameter(thetas, xis))
    _write_rows(args.out, ("theta", "xi", "s_hat", "std_err", "s_ideal"), rows)


def cmd_sample(args: argparse.Namespace) -> None:
    lam, count, chunk = bell_spectrum(args.theta), _whole(args.n, "n", 1), chsh._HAAR_CHUNK

    def block(start):
        """The CSV text of the states of haar_block at start, and their min and max."""
        values = haar_block(lam, args.seed, start, min(chunk, count - start))
        text = "".join(_lines(np.arange(start, start + values.size), values, "", "", "", ""))
        return text, values.min(), values.max()

    blocks = _ordered(block, range(0, count, chunk))

    def rows():
        lo, hi = math.inf, -math.inf
        for text, block_lo, block_hi in blocks:
            lo, hi = min(lo, block_lo), max(hi, block_hi)
            yield text
        yield from _lines("summary", "", lo, hi, lam[0], lam[-1])

    # Closing the blocks ends their workers on every path, before the error or interrupt goes on.
    with contextlib.closing(blocks):
        _write_rows(args.out, ("index", "s_sample", "sample_min", "sample_max", "s_qmin", "s_qmax"), rows())


def _radians(value: float | None, degrees: bool) -> float | None:
    """A float flag's angle in radians, converted from degrees when asked; None stays None."""
    return math.radians(value) if degrees and value is not None else value


# argparse reads a separate token that starts with - as a flag unless it is a plain number.
_NEGATIVE_NOTE = "; join a negative first value to the flag with ="
_GRID_HELP = "start:stop:count (default 0:pi:181)" + _NEGATIVE_NOTE

# Each option's argparse keywords, and the reader of its value as an angle (None for a flag that is no angle).
_FLAGS = {
    "--theta-grid": (dict(help=_GRID_HELP), parse_grid),
    "--xi-grid": (dict(help=_GRID_HELP), parse_grid),
    "--theta-list": (dict(help="comma-separated theta values" + _NEGATIVE_NOTE), parse_angle_list),
    "--xi-list": (dict(help="comma-separated xi values" + _NEGATIVE_NOTE), parse_angle_list),
    "--pairs": (dict(type=int, default=10000, help="photon pairs per setting"), None),
    "--replications": (dict(type=int, default=1, help="replications per (theta, xi)"), None),
    "--config": (dict(help="noise profile file with key = value lines"), None),
    "--visibility": (dict(type=float, help="Werner visibility in [0, 1]"), None),
    "--offset-a": (dict(dest="analyzer_offset_a", type=float, help="analyzer a offset angle"), _radians),
    "--offset-b": (dict(dest="analyzer_offset_b", type=float, help="analyzer b offset angle"), _radians),
    "--accidentals": (
        dict(dest="accidental_fraction", type=float, help="accidental coincidence fraction in [0, 1)"),
        None,
    ),
    "--theta": (dict(type=float, required=True, help="setting parameter theta"), _radians),
    "--n": (dict(type=int, default=10000, help="number of random states"), None),
    "--out": (dict(required=True, help="output CSV path"), None),
    "--seed": (dict(type=int, default=0, help="64-bit seed (default 0)"), None),
    "--degrees": (dict(action="store_true", help="interpret command-line angles as degrees"), None),
}
_NOISE = ("--config", "--visibility", "--offset-a", "--offset-b", "--accidentals")
_COMMON = ("--out", "--seed", "--degrees")

# Each command's help, the flags it has before _COMMON's, and its handler, which main calls with the parsed
# namespace once every angle in it is in radians.
_COMMANDS = {
    "surface": ("S over a full (theta, xi) grid", ("--theta-grid", "--xi-grid"), cmd_surface),
    "sweep-xi": ("S versus xi for chosen theta values", ("--theta-list", "--xi-grid"), cmd_sweep_xi),
    "sweep-theta": ("S versus theta with the spectral bound envelope", ("--xi-list", "--theta-grid"), cmd_sweep_theta),
    "bounds": ("classical, spectral, and quantum-ceiling bounds per theta", ("--theta-grid",), cmd_bounds),
    "simulate": (
        "simulated S measurements with error bars", ("--theta-list", "--xi-list", "--pairs", "--replications", *_NOISE),
        cmd_simulate,
    ),
    "sample": ("Bell-operator expectations of random pure states", ("--theta", "--n"), cmd_sample),
}


def _add_flags(parser: argparse.ArgumentParser, name: str) -> argparse.ArgumentParser:
    """``parser`` with the flags of command ``name`` added, _COMMON's last."""
    for flag in _COMMANDS[name][1] + _COMMON:
        parser.add_argument(flag, **_FLAGS[flag][0])
    return parser


def build_parser() -> argparse.ArgumentParser:
    """The full chshlab parser: every subcommand, with its help and its flags."""
    parser = argparse.ArgumentParser(
        prog="chshlab",
        description="CHSH parameter sweeps, correlation bounds, and coincidence-counting simulation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (summary, _, _) in _COMMANDS.items():
        _add_flags(sub.add_parser(name, help=summary), name)
    return parser


def parse_args(argv) -> argparse.Namespace:
    """build_parser().parse_args(argv); when argv[0] names a command, a lone parser of its flags parses the rest.

    argparse hands every token after a command to its subparser, prog "chshlab <name>", through parse_known_args,
    so the same namespace, output and exit result.  The full parser refuses left-over tokens with its own usage.
    """
    if argv and argv[0] in _COMMANDS:
        args, rest = _add_flags(argparse.ArgumentParser(prog=f"chshlab {argv[0]}"), argv[0]).parse_known_args(argv[1:])
        if not rest:
            return argparse.Namespace(command=argv[0], **vars(args))
    return build_parser().parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    _, flags, handler = _COMMANDS[args.command]
    try:
        # The one place --degrees is read: each angle-valued flag in the command's flag order, so that of two
        # bad flags the first is reported.
        for flag in flags:
            keywords, read = _FLAGS[flag]
            if read is not None:
                dest = keywords.get("dest", flag[2:].replace("-", "_"))
                setattr(args, dest, read(getattr(args, dest), args.degrees))
        handler(args)
    except (ValueError, OSError, ArithmeticError, MemoryError) as exc:
        print(f"chshlab: error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
