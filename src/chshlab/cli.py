"""Command-line front end: deterministic CSV sweeps, bound tables, and simulated runs.

Angles are radians on input (a --degrees flag converts) and always radians in
the output files.  Every subcommand is a pure function of its flags and seed,
so reruns produce byte-identical CSVs.
"""

from __future__ import annotations

import argparse
import math
import os
import shutil
import sys
from dataclasses import dataclass

import numpy as np

from .chsh import (
    CIRELSON_LIMIT,
    CLASSICAL_LIMIT,
    haar_sample_s,
    quantum_bounds,
    s_parameter,
)
from .expsim import NoiseModel, estimate_s
from .rng import derive_seed

DEFAULT_GRID_COUNT = 181
DEFAULT_ANGLE_LIST = (0.0, math.pi / 8, math.pi / 4, 3 * math.pi / 8, math.pi / 2)

_CONFIG_KEYS = ("visibility", "analyzer_offset_a", "analyzer_offset_b", "accidental_fraction")


@dataclass(frozen=True)
class GridSpec:
    """Inclusive linear grid start:stop:count."""

    start: float
    stop: float
    count: int

    def __post_init__(self):
        if not (math.isfinite(self.start) and math.isfinite(self.stop)):
            raise ValueError("grid endpoints must be finite")
        if self.count < 2:
            raise ValueError(f"grid count must be at least 2, got {self.count}")
        if not self.start < self.stop:
            raise ValueError(f"grid start {self.start!r} must be below stop {self.stop!r}")

    def points(self) -> np.ndarray:
        return np.linspace(self.start, self.stop, self.count)


@dataclass(frozen=True)
class RunConfig:
    """Simulated-run parameters: counting statistics, noise, seeding."""

    pairs_per_setting: int
    noise: NoiseModel
    seed: int
    replications: int

    def __post_init__(self):
        if self.pairs_per_setting < 2:
            raise ValueError("pairs-per-setting must be at least 2")
        if self.replications < 1:
            raise ValueError("replications must be at least 1")


def _fmt(value: float) -> str:
    return f"{value:.12g}"


def _write_rows(path: str, header: tuple[str, ...], rows) -> None:
    """Write the CSV to ``path``; a regular file is replaced atomically.

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
                for row in rows:
                    fh.write(",".join(row) + "\n")
            if atomic:
                if exists:
                    shutil.copymode(target, tmp)
                os.replace(tmp, target)
        finally:
            if atomic and os.path.exists(tmp):
                os.unlink(tmp)
    except OSError as exc:
        raise OSError(f"cannot write output file {path!r}: {exc}") from exc


def parse_grid(text: str, degrees: bool = False) -> GridSpec:
    """Parse start:stop:count, converting endpoints from degrees when asked."""
    parts = text.split(":")
    if len(parts) != 3:
        raise ValueError(f"grid {text!r} is not of the form start:stop:count")
    try:
        start, stop, count = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError as exc:
        raise ValueError(f"grid {text!r} is not of the form start:stop:count") from exc
    if degrees:
        start, stop = math.radians(start), math.radians(stop)
    return GridSpec(start=start, stop=stop, count=count)


def parse_angle_list(text: str, degrees: bool = False) -> tuple[float, ...]:
    """Parse a nonempty comma-separated list of angles."""
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
    """Read `key = value` lines; keys limited to the noise-model fields."""
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
        try:
            out[key] = float(value.strip())
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: non-numeric value for {key!r}") from exc
    return out


def resolve_noise(args: argparse.Namespace) -> NoiseModel:
    """Noise model from defaults, then config file, then explicit flags."""
    fields = {key: getattr(NoiseModel, key) for key in _CONFIG_KEYS}
    if args.config is not None:
        fields.update(load_noise_config(args.config))
    scale = math.pi / 180.0 if args.degrees else 1.0
    if args.visibility is not None:
        fields["visibility"] = args.visibility
    if args.offset_a is not None:
        fields["analyzer_offset_a"] = args.offset_a * scale
    if args.offset_b is not None:
        fields["analyzer_offset_b"] = args.offset_b * scale
    if args.accidentals is not None:
        fields["accidental_fraction"] = args.accidentals
    return NoiseModel(**fields)


def _sweep_rows(outer, cells, s):
    """CSV rows (outer, inner, s, *extra), outer values running slowest.

    ``cells[k]`` holds the preformatted (inner, *extra) columns, and ``s[i, k]``
    is S at ``outer[i]`` and ``cells[k]``.
    """
    return (
        (_fmt(o), cell[0], _fmt(value), *cell[1:])
        for o, s_row in zip(outer, s)
        for cell, value in zip(cells, s_row)
    )


def cmd_surface(theta_grid: GridSpec, xi_grid: GridSpec, out: str) -> None:
    thetas, xis = theta_grid.points(), xi_grid.points()
    s = s_parameter(thetas[:, None], xis[None, :])
    _write_rows(out, ("theta", "xi", "s"), _sweep_rows(thetas, [(_fmt(xi),) for xi in xis], s))


def cmd_sweep_xi(theta_list, xi_grid: GridSpec, out: str) -> None:
    if not theta_list:
        raise ValueError("theta list must not be empty")
    xis = xi_grid.points()
    s = s_parameter(np.asarray(theta_list)[:, None], xis[None, :])
    limits = (_fmt(CLASSICAL_LIMIT), _fmt(CIRELSON_LIMIT))
    cells = [(_fmt(xi), *limits) for xi in xis]
    header = ("theta", "xi", "s", "classical_limit", "cirelson_limit")
    _write_rows(out, header, _sweep_rows(theta_list, cells, s))


def cmd_sweep_theta(xi_list, theta_grid: GridSpec, out: str) -> None:
    if not xi_list:
        raise ValueError("xi list must not be empty")
    thetas = theta_grid.points()
    s = s_parameter(thetas[None, :], np.asarray(xi_list)[:, None])
    env = quantum_bounds(thetas)
    cells = [(_fmt(t), _fmt(lo), _fmt(hi)) for t, lo, hi in zip(thetas, env.s_min, env.s_max)]
    _write_rows(out, ("xi", "theta", "s", "s_qmin", "s_qmax"), _sweep_rows(xi_list, cells, s))


def cmd_bounds(theta_grid: GridSpec, out: str) -> None:
    thetas = theta_grid.points()
    q_max = quantum_bounds(thetas).s_max
    classical, cirelson = _fmt(CLASSICAL_LIMIT), _fmt(CIRELSON_LIMIT)
    rows = (
        (_fmt(t), classical, _fmt(q), cirelson, _fmt(CIRELSON_LIMIT - q)) for t, q in zip(thetas, q_max)
    )
    _write_rows(out, ("theta", "classical_bound", "quantum_max", "cirelson", "superquantum_gap"), rows)


def cmd_simulate(theta_list, xi_list, cfg: RunConfig, out: str) -> None:
    if not theta_list or not xi_list:
        raise ValueError("theta and xi lists must not be empty")
    thetas, xis = np.asarray(theta_list), np.asarray(xi_list)
    i, j, rep = np.ix_(range(len(thetas)), range(len(xis)), range(cfg.replications))
    est = estimate_s(
        thetas[i], xis[j], cfg.pairs_per_setting, cfg.noise, derive_seed(cfg.seed, i, j, rep)
    )
    ideals = s_parameter(thetas[:, None], xis[None, :])
    rows = (
        (_fmt(thetas[a]), _fmt(xis[b]), _fmt(s), _fmt(err), _fmt(ideals[a, b]))
        for (a, b, _), s, err in zip(np.ndindex(est.s_hat.shape), est.s_hat.flat, est.std_err.flat)
    )
    _write_rows(out, ("theta", "xi", "s_hat", "std_err", "s_ideal"), rows)


def cmd_sample(theta: float, n: int, seed: int, out: str) -> None:
    samples = haar_sample_s(theta, n, seed)
    bounds = quantum_bounds(theta)
    rows = [(str(i), _fmt(s), "", "", "", "") for i, s in enumerate(samples)]
    rows.append(
        (
            "summary",
            "",
            _fmt(float(samples.min())),
            _fmt(float(samples.max())),
            _fmt(bounds.s_min),
            _fmt(bounds.s_max),
        )
    )
    _write_rows(out, ("index", "s_sample", "sample_min", "sample_max", "s_qmin", "s_qmax"), rows)


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--out", required=True, help="output CSV path")
    parser.add_argument("--seed", type=int, default=0, help="64-bit seed (default 0)")
    parser.add_argument(
        "--degrees", action="store_true", help="interpret command-line angles as degrees"
    )


def _add_noise_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", default=None, help="noise profile file with key = value lines")
    parser.add_argument("--visibility", type=float, default=None, help="Werner visibility in [0, 1]")
    parser.add_argument("--offset-a", type=float, default=None, help="analyzer a offset angle")
    parser.add_argument("--offset-b", type=float, default=None, help="analyzer b offset angle")
    parser.add_argument(
        "--accidentals", type=float, default=None, help="accidental coincidence fraction in [0, 1)"
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chshlab",
        description="CHSH parameter sweeps, correlation bounds, and coincidence-counting simulation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("surface", help="S over a full (theta, xi) grid")
    p.add_argument("--theta-grid", default=None, help="start:stop:count (default 0:pi:181)")
    p.add_argument("--xi-grid", default=None, help="start:stop:count (default 0:pi:181)")
    _add_common(p)
    p.set_defaults(
        func=lambda a: cmd_surface(
            _grid_arg(a.theta_grid, a.degrees), _grid_arg(a.xi_grid, a.degrees), a.out
        )
    )

    p = sub.add_parser("sweep-xi", help="S versus xi for chosen theta values")
    p.add_argument("--theta-list", default=None, help="comma-separated theta values")
    p.add_argument("--xi-grid", default=None, help="start:stop:count (default 0:pi:181)")
    _add_common(p)
    p.set_defaults(
        func=lambda a: cmd_sweep_xi(
            _list_arg(a.theta_list, a.degrees), _grid_arg(a.xi_grid, a.degrees), a.out
        )
    )

    p = sub.add_parser("sweep-theta", help="S versus theta with the spectral bound envelope")
    p.add_argument("--xi-list", default=None, help="comma-separated xi values")
    p.add_argument("--theta-grid", default=None, help="start:stop:count (default 0:pi:181)")
    _add_common(p)
    p.set_defaults(
        func=lambda a: cmd_sweep_theta(
            _list_arg(a.xi_list, a.degrees), _grid_arg(a.theta_grid, a.degrees), a.out
        )
    )

    p = sub.add_parser("bounds", help="classical, spectral, and quantum-ceiling bounds per theta")
    p.add_argument("--theta-grid", default=None, help="start:stop:count (default 0:pi:181)")
    _add_common(p)
    p.set_defaults(func=lambda a: cmd_bounds(_grid_arg(a.theta_grid, a.degrees), a.out))

    p = sub.add_parser("simulate", help="simulated S measurements with error bars")
    p.add_argument("--theta-list", default=None, help="comma-separated theta values")
    p.add_argument("--xi-list", default=None, help="comma-separated xi values")
    p.add_argument("--pairs", type=int, default=10000, help="photon pairs per setting")
    p.add_argument("--replications", type=int, default=1, help="replications per (theta, xi)")
    _add_noise_flags(p)
    _add_common(p)
    p.set_defaults(
        func=lambda a: cmd_simulate(
            _list_arg(a.theta_list, a.degrees),
            _list_arg(a.xi_list, a.degrees),
            RunConfig(a.pairs, resolve_noise(a), a.seed, a.replications),
            a.out,
        )
    )

    p = sub.add_parser("sample", help="Bell-operator expectations of random pure states")
    p.add_argument("--theta", type=float, required=True, help="setting parameter theta")
    p.add_argument("--n", type=int, default=10000, help="number of random states")
    _add_common(p)
    p.set_defaults(
        func=lambda a: cmd_sample(
            math.radians(a.theta) if a.degrees else a.theta, a.n, a.seed, a.out
        )
    )

    return parser


def _grid_arg(text: str | None, degrees: bool) -> GridSpec:
    if text is None:
        return GridSpec(start=0.0, stop=math.pi, count=DEFAULT_GRID_COUNT)
    return parse_grid(text, degrees)


def _list_arg(text: str | None, degrees: bool) -> tuple[float, ...]:
    return DEFAULT_ANGLE_LIST if text is None else parse_angle_list(text, degrees)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        args.func(args)
    except (ValueError, OSError, ArithmeticError) as exc:
        print(f"chshlab: error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
