"""Command-line front end: deterministic CSV sweeps, bound tables, and simulated runs.

Angles are radians on input (a --degrees flag converts) and always radians in
the output files.  Every subcommand is a pure function of its flags and seed,
so reruns produce byte-identical CSVs.
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import os
import shutil
import sys

import numpy as np

from .chsh import (
    CIRELSON_LIMIT, CLASSICAL_LIMIT, bell_spectrum, haar_blocks, quantum_bounds, s_parameter,
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

    A string column is a literal cell, the same on every row.  Every other
    column is numeric, broadcasts against the rest and is formatted with
    _CELL: 12 significant digits, as ``format(value, ".12g")`` gives them.  An
    integer column whose values all lie strictly between -10**12 and 10**12
    is written with %d, which gives the same bytes faster; its range comes
    from min and max, so no copy of the column is made.  Rows run in C order
    of the broadcast shape, so the first axis runs slowest.
    """
    template = ",".join(c if isinstance(c, str) else _cell(np.asarray(c)) for c in columns) + "\n"
    arrays = [np.asarray(c) for c in columns if not isinstance(c, str)]
    shape = np.broadcast_shapes(*(a.shape for a in arrays))
    flats = [np.broadcast_to(a, shape).flat for a in arrays]
    size = math.prod(shape)
    for start in range(0, size, _BLOCK_ROWS):
        block = [f[start : start + _BLOCK_ROWS].tolist() for f in flats]
        yield "".join([template % row for row in zip(*block)])


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
    if not (math.isfinite(start) and math.isfinite(stop)):
        raise ValueError("grid endpoints must be finite")
    if count < 2:
        raise ValueError(f"grid count must be at least 2, got {count}")
    if not start < stop:
        raise ValueError(f"grid start {start!r} must be below stop {stop!r}")
    return np.linspace(start, stop, count)


def parse_angle_list(text: str | None, degrees: bool = False) -> tuple[float, ...]:
    """Parse a nonempty comma-separated list of angles; None gives DEFAULT_ANGLE_LIST."""
    if text is None:
        return DEFAULT_ANGLE_LIST
    items = [item.strip() for item in text.split(",") if item.strip()]
    if not items:
        raise ValueError("angle list must not be empty")
    try:
        values = tuple(float(item) for item in items)
    except ValueError as exc:
        raise ValueError(f"angle list {text!r} contains a non-numeric entry") from exc
    if degrees:
        values = tuple(math.radians(v) for v in values)
    return values


def load_noise_config(path: str) -> dict[str, float]:
    """Read `key = value` lines; keys limited to the noise-model fields, each given at most once."""
    out: dict[str, float] = {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
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


def cmd_surface(thetas: np.ndarray, xis: np.ndarray, out: str) -> None:
    _write_rows(out, ("theta", "xi", "s"), _lines(thetas[:, None], xis, s_parameter(thetas[:, None], xis)))


def cmd_sweep_xi(theta_list, xis: np.ndarray, out: str) -> None:
    thetas = np.asarray(theta_list)[:, None]
    s = s_parameter(thetas, xis)
    header = ("theta", "xi", "s", "classical_limit", "cirelson_limit")
    _write_rows(out, header, _lines(thetas, xis, s, CLASSICAL_LIMIT, CIRELSON_LIMIT))


def cmd_sweep_theta(xi_list, thetas: np.ndarray, out: str) -> None:
    xis = np.asarray(xi_list)[:, None]
    env = quantum_bounds(thetas)
    rows = _lines(xis, thetas, s_parameter(thetas, xis), env.s_min, env.s_max)
    _write_rows(out, ("xi", "theta", "s", "s_qmin", "s_qmax"), rows)


def cmd_bounds(thetas: np.ndarray, out: str) -> None:
    q = quantum_bounds(thetas).s_max
    rows = _lines(thetas, CLASSICAL_LIMIT, q, CIRELSON_LIMIT, CIRELSON_LIMIT - q)
    _write_rows(out, ("theta", "classical_bound", "quantum_max", "cirelson", "superquantum_gap"), rows)


def cmd_simulate(
    theta_list, xi_list, pairs: int, noise: NoiseModel, seed: int, replications: int, out: str
) -> None:
    if replications < 1:
        raise ValueError(f"replications must be at least 1, got {replications!r}")
    i, j, rep = np.ix_(range(len(theta_list)), range(len(xi_list)), range(replications))
    thetas, xis = np.asarray(theta_list)[i], np.asarray(xi_list)[j]
    est = estimate_s(thetas, xis, pairs, noise, derive_seed(seed, i, j, rep))
    rows = _lines(thetas, xis, est.s_hat, est.std_err, s_parameter(thetas, xis))
    _write_rows(out, ("theta", "xi", "s_hat", "std_err", "s_ideal"), rows)


def cmd_sample(theta: float, n: int, seed: int, out: str) -> None:
    lam = bell_spectrum(theta)
    blocks = haar_blocks(lam, n, seed)

    def rows():
        lo, hi = math.inf, -math.inf
        for start, values in blocks:
            lo, hi = min(lo, values.min()), max(hi, values.max())
            yield from _lines(np.arange(start, start + values.size), values, "", "", "", "")
        yield from _lines("summary", "", lo, hi, lam[0], lam[-1])

    _write_rows(out, ("index", "s_sample", "sample_min", "sample_max", "s_qmin", "s_qmax"), rows())


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

# Each command's help, the flags it has before _COMMON's, and its handler, which main calls with every angle in radians.
_COMMANDS = {
    "surface": (
        "S over a full (theta, xi) grid", ("--theta-grid", "--xi-grid"),
        lambda a: cmd_surface(a.theta_grid, a.xi_grid, a.out),
    ),
    "sweep-xi": (
        "S versus xi for chosen theta values", ("--theta-list", "--xi-grid"),
        lambda a: cmd_sweep_xi(a.theta_list, a.xi_grid, a.out),
    ),
    "sweep-theta": (
        "S versus theta with the spectral bound envelope", ("--xi-list", "--theta-grid"),
        lambda a: cmd_sweep_theta(a.xi_list, a.theta_grid, a.out),
    ),
    "bounds": (
        "classical, spectral, and quantum-ceiling bounds per theta", ("--theta-grid",),
        lambda a: cmd_bounds(a.theta_grid, a.out),
    ),
    "simulate": (
        "simulated S measurements with error bars", ("--theta-list", "--xi-list", "--pairs", "--replications", *_NOISE),
        lambda a: cmd_simulate(a.theta_list, a.xi_list, a.pairs, resolve_noise(a), a.seed, a.replications, a.out),
    ),
    "sample": (
        "Bell-operator expectations of random pure states", ("--theta", "--n"),
        lambda a: cmd_sample(a.theta, a.n, a.seed, a.out),
    ),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chshlab",
        description="CHSH parameter sweeps, correlation bounds, and coincidence-counting simulation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (summary, flags, _) in _COMMANDS.items():
        p = sub.add_parser(name, help=summary)
        for flag in flags + _COMMON:
            p.add_argument(flag, **_FLAGS[flag][0])
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
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
    except (ValueError, OSError, ArithmeticError) as exc:
        print(f"chshlab: error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
