"""Command-line front end: deterministic CSV sweeps, bound tables, and simulated runs.

Angles are radians on input (a --degrees flag converts) and always radians in
the output files.  Every subcommand is a pure function of its flags and seed,
so reruns produce byte-identical CSVs.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import dataclasses
import functools
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

_NOISE_FIELDS = tuple(field.name for field in dataclasses.fields(NoiseModel))


_CELL = b"%.12g"
_BLOCK_ROWS = 1024


def _lines(*columns):
    """CSV bytes of the broadcast columns, yielded _BLOCK_ROWS whole lines at a time.

    A bytes column is a literal cell, the same on every row; a % in it is
    escaped as %% in the row template.  Every other column is numeric,
    broadcasts against the rest and is formatted with _CELL: 12 significant
    digits, as ``format(value, ".12g")`` gives them, which writes every
    integer of fewer than 13 digits as %d would.  Rows run in C order of the
    broadcast shape, so the first axis runs slowest.  A block of k rows is
    one % operation: the row template repeated k times, applied to the
    block's cells interleaved row by row into one flat list.

    No value is formatted twice.  A column with fewer values than there are
    rows, and at most _BLOCK_ROWS of them, such as a constant, is formatted
    once per value and its bytes fill %s cells; so memory stays at about one
    block of cells per column.  Every other column is formatted block by
    block.  Each value gets _CELL on every path, so the bytes do not depend
    on the path.
    """
    columns = [c if isinstance(c, bytes) else np.asarray(c) for c in columns]
    shape = np.broadcast_shapes(*(c.shape for c in columns if not isinstance(c, bytes)))
    size = math.prod(shape)
    specs, flats = [], []
    for c in columns:
        if isinstance(c, bytes):
            specs.append(c.replace(b"%", b"%%"))
            continue
        spec = _CELL
        if c.size < size and c.size <= _BLOCK_ROWS:
            spec, c = b"%s", np.array([_CELL % v for v in c.ravel().tolist()], dtype=object).reshape(c.shape)
        specs.append(spec)
        flats.append(np.broadcast_to(c, shape).flat)
    template, width = b",".join(specs) + b"\n", len(flats)
    for start in range(0, size, _BLOCK_ROWS):
        k = min(_BLOCK_ROWS, size - start)
        cells = [None] * (k * width)
        for c, f in enumerate(flats):
            cells[c::width] = f[start : start + k].tolist()
        yield (template * k) % tuple(cells)


@functools.cache
def _tables() -> np.ndarray:
    """_sample_rows' words, built once on first use.  The 4 ASCII digits of each k < 10**4 as one uint32, in three
    tables laid end to end: from 0 with trailing zeros as NUL (k = 0 all NUL), from _LEAD with leading zeros but the
    last as NUL, and from _PLAIN as they are; then from _HEAD, at 20 * sign + 2 * digit + point, the 40 words of a
    comma, "-" or NUL, a digit, and "." or NUL."""
    k, place = np.arange(10**4, dtype=np.int16)[:, None], 10 ** np.arange(3, -1, -1, dtype=np.int16)
    plain = (k // place % 10 + ord("0")).astype(np.uint8)
    trail = np.where(k % (10 * place) != 0, plain, 0)
    lead = np.where((k >= place) | (place == 1), plain, 0)
    head = b"".join(bytes([ord(","), s, d, p]) for s in b"\0-" for d in b"0123456789" for p in b"\0.")
    return np.concatenate([trail, lead, plain, np.frombuffer(head, np.uint8).reshape(40, 4)]).view(np.uint32).ravel()


_LEAD, _PLAIN, _HEAD = 10**4, 2 * 10**4, 3 * 10**4
_CELLS, _NEWLINE = np.frombuffer(b",,,,\n\0\0\0", np.uint32)
_POW10 = 10 ** np.arange(17, dtype=np.int64)


def _sample_rows(start: int, values: np.ndarray) -> bytes:
    """``b"".join(_lines(np.arange(start, start + values.size), values, b"", b"", b"", b""))``, indices below 10**12.

    A value x with 1e-4 <= |x| < 10, which holds for every Bell-operator expectation (|x| <= 2 sqrt 2), is written
    in fixed notation from its 12 significant digits rint(|x| * 10**(11 - e)), e its decade: 10**(11 - e) is an
    exact double and the product is rounded by at most 2**-13, so the digits are exact unless the product lies
    within 2**-11 of a rounding tie.  log10 only guesses e; a product outside [1e11, 1e12) shows a wrong guess.  A
    value with a wrong guess, near a tie or rounding to 10, and every value outside that range, gets its row from
    %.  Each other row is laid out in as few uint32 words as the block needs: its index in as many 4-digit groups
    as the block's last index has, NUL before its first digit; one _HEAD word of comma, sign, whole digit and
    point; 4 words of fraction and 2 of trailer.  The NULs are dropped at the end.
    """
    table, n, x = _tables(), values.size, np.abs(values)
    fast = (x >= 1e-4) & (x < 10)
    x = np.where(fast, x, 1.0)
    e = np.floor(np.log10(x)).astype(np.intp)
    scale = _POW10[11 - e]
    y = x * scale
    fast &= (y >= 1e11) & (y < 1e12) & (abs(y - np.floor(y) - 0.5) >= 2.0**-11)
    # Exact in doubles: the digits (which may round up to 10**12), scale, whole * scale and floor(digits / scale).
    digits = np.rint(y)
    whole = np.floor(digits / scale).astype(np.intp)
    rest = (digits - whole * scale).astype(np.int64) * _POW10[5 + e]  # the fraction's first 16 digits
    fast &= whole < 10
    i, groups = start + np.arange(n), 1 + (start + n > 10**4) + (start + n > 10**8)
    words = np.empty((groups + 7, n), np.uint32)
    # Each index's group count; every index has the block's count unless the block starts below 10**(4 * groups - 4).
    count = groups if start >= 10 ** (4 * groups - 4) else 1 + (i >= 10**4) + (i >= 10**8)
    for g, row in enumerate(words[groups - 1 :: -1]):
        # Group g from the last is from _PLAIN below the index's first digit, from _LEAD at it, and 0 (all NUL) above.
        i, low = i // 10**4, i
        np.take(table, low - i * 10**4 + np.clip(count - g, 0, 2) * _LEAD, out=row)
    # A fallback row's whole part may be out of the table; clipping keeps its (unused) word in it.
    np.take(table, _HEAD + 20 * (values < 0) + 2 * whole + (rest != 0), out=words[groups], mode="clip")
    for row, place in zip(words[groups + 1 : groups + 5], (10**12, 10**8, 10**4, 1)):
        group = rest // place
        rest = rest - group * place
        # A group is written in full when a later one is nonzero, else with its trailing zeros dropped.
        np.take(table, group + (rest != 0) * _PLAIN, out=row)
    words[-2], words[-1] = _CELLS, _NEWLINE
    pieces, done = [], 0
    for r in np.flatnonzero(~fast).tolist() + [n]:
        pieces.append(words.T[done:r].tobytes().translate(None, b"\0"))
        if r < n:
            pieces.append((b"%d," + _CELL + b",,,,\n") % (start + r, values[r]))
        done = r + 1
    return b"".join(pieces)


def _write_rows(path: str, header: tuple[str, ...], lines) -> None:
    """Write the header row and then ``lines`` to ``path``; a regular file is replaced atomically.

    ``lines`` is an iterable of bytes, each holding whole CSV lines such as
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
            with open(tmp or target, "wb") as fh:
                fh.write((",".join(header) + "\n").encode())
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
    """A worker of _ordered: send render(task) for each task in order, or the first exception, then return.

    It first keeps its heap, which glibc would trim after each task and fault in again: the trim and mmap thresholds
    go to 32 MiB, glibc's own 64-bit cap for them and well above a sample block's 3 MiB, unless mallopt is missing.
    """
    # An interrupt reaches the whole process group; the main process handles it and ends this worker.
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    with contextlib.suppress(OSError, AttributeError):
        mallopt = ctypes.CDLL(None).mallopt
        mallopt.argtypes = ctypes.c_int, ctypes.c_int
        for param in (-1, -3):  # M_TRIM_THRESHOLD, M_MMAP_THRESHOLD
            mallopt(param, 32 << 20)
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
    count = _whole(count, "grid count", 2)
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


def resolve_noise(args: argparse.Namespace) -> NoiseModel:
    """The noise model with each field from its flag when given, else its default; main has put angles in radians."""
    return NoiseModel(**{key: getattr(args, key) for key in _NOISE_FIELDS if getattr(args, key) is not None})


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
    lam, count, chunk = bell_spectrum(args.theta), _whole(args.n, "n", 1, 10**12), chsh._HAAR_CHUNK

    def block(start):
        """The CSV bytes of the states of haar_block at start, and their min and max."""
        values = haar_block(lam, args.seed, start, min(chunk, count - start))
        return _sample_rows(start, values), values.min(), values.max()

    _tables()  # built before the fork, so the workers share them
    blocks = _ordered(block, range(0, count, chunk))

    def rows():
        lo, hi = math.inf, -math.inf
        for data, block_lo, block_hi in blocks:
            lo, hi = min(lo, block_lo), max(hi, block_hi)
            yield data
        yield from _lines(b"summary", b"", lo, hi, lam[0], lam[-1])

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
_NOISE = ("--visibility", "--offset-a", "--offset-b", "--accidentals")
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
