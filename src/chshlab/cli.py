"""Command-line front end: deterministic CSV sweeps, bound tables, and simulated runs.

Angles are radians on input (a --degrees flag converts) and always radians in the output files.  Every subcommand
is a pure function of its flags and seed, so reruns produce byte-identical CSVs.
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
from .chsh import CIRELSON_LIMIT, CLASSICAL_LIMIT, _whole, bell_spectrum, haar_block, quantum_bounds, s_parameter
from .expsim import NoiseModel, estimate_s
from .rng import derive_seed

DEFAULT_GRID_COUNT = 181
DEFAULT_ANGLE_LIST = (0.0, math.pi / 8, math.pi / 4, 3 * math.pi / 8, math.pi / 2)

_NOISE_FIELDS = tuple(field.name for field in dataclasses.fields(NoiseModel))


_CELL, _BLOCK_ROWS = b"%.12g", 4096
_LEAD, _PLAIN, _HEAD, _POW10 = 10**4, 2 * 10**4, 3 * 10**4, 10 ** np.arange(17, dtype=np.int64)


@functools.cache
def _tables() -> np.ndarray:
    """_lines' words: the 4 digits of each k < 10**4 as one uint32, from 0 with trailing zeros as NUL, from _LEAD with
    leading zeros but the last as NUL, from _PLAIN as they are; from _HEAD + 40 * first + 20 * sign + 2 * digit +
    point, a comma (NUL in a row's first cell), "-" or NUL, a digit, and "." or NUL."""
    k, place = np.arange(10**4, dtype=np.int16)[:, None], 10 ** np.arange(3, -1, -1, dtype=np.int16)
    plain = (k // place % 10 + ord("0")).astype(np.uint8)
    trail = np.where(k % (10 * place) != 0, plain, 0)
    lead = np.where((k >= place) | (place == 1), plain, 0)
    head = b"".join(bytes([c, s, d, p]) for c in b",\0" for s in b"\0-" for d in b"0123456789" for p in b"\0.")
    return np.concatenate([trail, lead, plain, np.frombuffer(head, np.uint8).reshape(80, 4)]).view(np.uint32).ravel()


def _fixed(values: np.ndarray, head: np.ndarray, out: list) -> np.ndarray:
    """Write the words of each float of values[j] into the 5 rows of out[j]; return whether each wrote what _CELL does.

    That is where 1e-4 <= |x| < 10, from the 12 significant digits d = rint(|x| * 10**(11 - e)), e the decade log10
    guesses: 10**(11 - e) is exact and the product is rounded by at most 2**-13, so d is exact unless the product is
    within 2**-11 of a tie, and a product outside [1e11, 1e12) shows a wrong guess.  d * 10**(5 + e) gives the words:
    head[j] + sign, whole digit and point, then 16 fraction digits in 4 words, up to the last nonzero one.
    """
    table, x = _tables(), np.abs(values)
    clipped = np.fmin(np.fmax(x, 1e-4), 9.999999999999998)  # NaN to 1e-4: finite arithmetic where nothing is written
    e = np.floor(np.log10(clipped)).astype(np.intp)
    y = clipped * _POW10[11 - e]
    digits = np.rint(y)
    fast = (clipped == x) & (y >= 1e11) & (y < 1e12) & (abs(y - digits) <= 0.5 - 2.0**-11)
    rest = digits.astype(np.int64) * _POW10[5 + e]
    whole = rest // 10**16
    rest -= whole * 10**16
    index = head + 20 * (values < 0) + 2 * whole + (rest != 0)
    for g in range(5):
        for rows, i in zip(out, index):
            table.take(i, out=rows[g], mode="clip")  # an unwritten value's index may be past the table
        if g < 3:
            group = rest // 10 ** (12 - 4 * g)
            rest -= group * 10 ** (12 - 4 * g)
        index = group + (rest != 0) * _PLAIN if g < 3 else rest
    return fast & (whole < 10)


def _digits(values: np.ndarray, out: np.ndarray) -> None:
    """Write the 4-digit groups of each int of ``values``, all in [0, 10**(4 * len(out))), into the rows of out, NUL
    before its first digit: what _CELL writes."""
    i, groups = values.astype(np.int64, copy=False), len(out)
    count = groups if i.min() >= 10 ** (4 * groups - 4) else 1 + (i >= 10**4) + (i >= 10**8)  # each value's groups
    for g, row in enumerate(out[::-1]):
        # Group g from the last is from _PLAIN below the value's first digit, from _LEAD at it, and 0 (all NUL) above.
        i, low = i // 10**4, i
        _tables().take(low - i * 10**4 + np.clip(count - g, 0, 2) * _LEAD, out=row, mode="clip")


def _padded(texts: list[bytes], width: int | None = None) -> np.ndarray:
    """The texts as the columns of a uint32 array of ``width`` rows (default the longest's), each padded with NUL."""
    width = width or -(-max(map(len, texts)) // 4)
    return np.frombuffer(b"".join(t.ljust(4 * width, b"\0") for t in texts), np.uint32).reshape(-1, width).T.copy()


def _percent(lead: bytes, values: np.ndarray, width: int) -> np.ndarray:
    """The ``width`` words of lead and _CELL's text of each of ``values``: the cells _lines' tables do not write."""
    return _padded([lead + _CELL % v for v in values.tolist()], width)


def _lines(*columns, block: int | None = None):
    """CSV bytes of the broadcast columns, yielded ``block`` (default _BLOCK_ROWS) whole lines at a time.

    A bytes column is a literal cell with no NUL.  Every other column is numeric, broadcasts against the rest and is
    written as _CELL writes it, rows in C order.  A column with fewer values than rows, and at most _BLOCK_ROWS, is
    formatted once per value, and is a literal if it has one.  A row is laid out in uint32 words, NUL where no byte
    goes: literal runs, with commas and newline; repeated columns' texts; float columns' words from _fixed and the
    words of an int column in [0, 10**12) from _digits.  _percent writes each float cell that _fixed does not, and
    every cell of any other int column, into the cell's own 5 words: a comma and _CELL's text take at most 20 bytes,
    as ",-1.23456789012e-308" does.  One translate per block drops the NULs.
    """
    columns = [c if isinstance(c, bytes) else np.asarray(c) for c in columns]
    shape = np.broadcast_shapes(*(c.shape for c in columns if not isinstance(c, bytes)))
    size, parts, sources, run = math.prod(shape), [], [], b""
    # parts: (kind, data, column, width) of a literal run's or a repeated column's words ("words"), or of a float ("f")
    # or an int column ("i" if in [0, 10**12), else "%"), data its comma; a column indexes sources, each numeric
    # column's values, or its value indices if repeated.
    for n, c in enumerate(columns):
        comma = b"," if n else b""
        if not isinstance(c, bytes) and c.size < size and c.size <= _BLOCK_ROWS:
            texts = [_CELL % v for v in c.ravel().tolist()]
            if len(texts) > 1:
                words, run = _padded([run + comma + t for t in texts]), b""
                parts.append(("words", words, len(sources), len(words)))
                sources.append(np.broadcast_to(np.arange(c.size).reshape(c.shape), shape).flat)
                continue
            c = texts[0]
        if isinstance(c, bytes):
            run += comma + c
            continue
        ints = c.dtype.kind in "iu"
        hi = int(c.max(initial=0)) if ints else 0
        kind = "f" if not ints else "i" if c.min(initial=0) >= 0 and hi < 10**12 else "%"
        run += comma if kind == "i" else b""  # a float's first word, or a "%" int's, holds its comma
        parts += [("words", _padded([run]), None, -(-len(run) // 4))] if run else []
        parts.append((kind, comma, len(sources), 1 + (hi >= 10**4) + (hi >= 10**8) if kind == "i" else 5))
        sources.append(c.reshape(-1) if c.size == size else np.broadcast_to(c, shape).flat)
        run = b""
    parts.append(("words", _padded([run + b"\n"]), None, len(run) // 4 + 1))
    block = block or _BLOCK_ROWS
    for start in range(0, size, block):
        k = min(size - start, block)
        got = [source[start : start + k] for source in sources]
        words, floats, end = np.empty((sum(p[3] for p in parts), k), np.uint32), [], 0
        for kind, data, j, width in parts:
            rows, end = words[end : end + width], end + width
            if kind == "i":
                _digits(got[j], rows)
            elif kind == "%":
                rows[:] = _percent(data, got[j], width)
            elif kind == "f":
                floats.append((rows, data, got[j]))
            elif j is None:
                rows[:] = data
            else:
                data.take(got[j], axis=1, out=rows, mode="clip")
        if floats:
            out, leads, values = zip(*floats)
            values, heads = np.array(values, np.float64), np.array([[_HEAD + 40 * (not lead)] for lead in leads])
            for rows, lead, cells, fast in zip(out, leads, values, _fixed(values, heads, out)):
                rows[:, ~fast] = _percent(lead, cells[~fast], 5)
        yield words.T.tobytes().translate(None, b"\0")


@contextlib.contextmanager
def _csv_file(path: str, header: tuple[str, ...]):
    """The open binary file of ``path``, its header row written; a regular file is replaced atomically.

    When ``path`` is absent or (through any symlinks) a regular file, the CSV is written under a temporary name beside
    the resolved file, then renamed into place with the old file's permission bits.  An error or interrupt part-way
    leaves the old file as it was and removes the temporary file, so a truncated CSV never appears under the final
    name.  Any other target, such as a device, FIFO or pipe, is written directly.  An OSError names the file.
    """
    atomic = not os.path.exists(path) or os.path.isfile(path)
    target = os.path.realpath(path) if atomic else path
    tmp = f"{target}.{os.getpid()}.tmp" if atomic else None
    try:
        with open(tmp or target, "wb") as fh:
            fh.write((",".join(header) + "\n").encode())
            yield fh
        if atomic:
            if os.path.exists(target):
                shutil.copymode(target, tmp)
            os.replace(tmp, target)
    except ChildProcessError:  # a worker's exit, not the file's error
        raise
    except OSError as exc:
        raise OSError(f"cannot write output file {path!r}: {exc.strerror or exc}") from exc
    finally:
        if atomic and os.path.exists(tmp):
            os.unlink(tmp)


def _write_rows(path: str, header: tuple[str, ...], lines) -> None:
    """Write the header row and then ``lines``, bytes of whole CSV lines as _lines yields, to ``path`` as consumed."""
    with _csv_file(path, header) as fh:
        fh.writelines(lines)


def _write_all(fd: int, data: bytes) -> None:
    """Write ``data`` to the file descriptor ``fd``, looping on short writes."""
    while data:
        data = data[os.write(fd, data) :]


def _render_share(render, tasks, conn, fd: int) -> None:
    """A worker of _ordered: render each task, then on its turn write the bytes to fd and send the extra, or the error.

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
            data, extra = render(task)
            conn.recv_bytes()
            _write_all(fd, data)
            conn.send(extra)
    except Exception as exc:
        conn.send(exc)


def _ordered(render, tasks: range, fd: int):
    """Write ``data`` of ``data, extra = render(task)`` to ``fd`` for each task of ``tasks`` in order; yield ``extra``.

    With w = min(CPUs in os.sched_getaffinity(0), len(tasks)), this process renders tasks[0::w] and forks w - 1
    workers, worker k rendering tasks[k::w]; on one CPU, for one task or without os.sched_getaffinity it renders all.
    Whichever process rendered a block writes it to ``fd``, whose file offset forked processes share, so no block's
    bytes cross a pipe.  Turns keep the blocks in order: for task i of worker k = i % w, this process sends k its turn
    over their duplex pipe, and k writes its block and replies with the extra, or its exception, raised here.  Each
    process renders its next block while others write.  Forked, the workers see ``render`` and this process's state
    without pickling, but no other thread of it.  However the generator ends, every worker is ended and joined first.
    """
    w = min(len(os.sched_getaffinity(0)), len(tasks)) if hasattr(os, "sched_getaffinity") else 1
    conns, workers, ahead = [None], [], None  # conns[k] is this process's end of worker k's pipe; k = 0 is this one
    try:
        if w > 1:
            import multiprocessing

            context = multiprocessing.get_context("fork")
        for k in range(1, w):
            conn, end = context.Pipe()
            conns.append(conn)
            workers.append(context.Process(target=_render_share, args=(render, tasks[k::w], end, fd)))
            workers[-1].start()
            # Only the worker keeps its end, so its exit shows here as end of file or a reset.
            end.close()
        for i, task in enumerate(tasks):
            k = i % w
            if k == 0:
                data, extra = ahead or render(task)
                _write_all(fd, data)
            else:
                # A worker that has exited refuses its turn; what it sent before, if anything, is still read.
                with contextlib.suppress(BrokenPipeError):
                    conns[k].send_bytes(b"")
                # While the round's last worker writes, this process renders its own next block.
                ahead = render(tasks[i + 1]) if k == w - 1 and i + 1 < len(tasks) else None
                try:
                    extra = conns[k].recv()
                except (EOFError, ConnectionError):
                    raise ChildProcessError(f"worker {k} exited before sending result {i}") from None
                if isinstance(extra, BaseException):
                    raise extra
            yield extra
    finally:
        for worker in workers:
            worker.terminate()
        for worker, conn in zip(workers, conns[1:]):
            worker.join()
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
        rows = next(_lines(np.arange(start, start + values.size), values, b"", b"", b"", b"", block=values.size))
        return rows, (values.min(), values.max())

    _tables()  # built before the fork, so the workers share them
    with _csv_file(args.out, ("index", "s_sample", "sample_min", "sample_max", "s_qmin", "s_qmax")) as fh:
        fh.flush()  # the header, before the blocks go straight to the file descriptor
        # Closing the blocks ends their workers on every path, before the temporary file is removed.
        with contextlib.closing(_ordered(block, range(0, count, chunk), fh.fileno())) as extremes:
            lo, hi = functools.reduce(lambda a, b: (min(a[0], b[0]), max(a[1], b[1])), extremes)
        fh.writelines(_lines(b"summary", b"", lo, hi, lam[0], lam[-1]))


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
