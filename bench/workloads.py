"""The benchmark workloads: the argv each pass sends to ``chshlab.cli.main`` and
the checks its CSV output must pass.

Deterministic outputs (the ``grid`` CSVs) are pinned by sha256.  Stochastic
outputs are checked by invariants that survive a declared change of the RNG
stream: row counts, the closed form of S, a 6-sigma agreement of every
simulated S with the noise model, and the spectral bounds on sampled S.
Their digests are reported for information only.
"""

from __future__ import annotations

import io
import math
import random
from dataclasses import dataclass
from typing import Callable, Iterator

import numpy as np

PI_4 = "0.7853981633974483"
# The CLI's documented defaults; the checks restate them so that a silent
# change of a default shows as a failed check.
DEFAULT_ANGLES = (0.0, math.pi / 8, math.pi / 4, 3 * math.pi / 8, math.pi / 2)
DEFAULT_VISIBILITY = 0.96
DEFAULT_ACCIDENTALS = 0.005
SIGMAS = 6.0
CLOSED_FORM_TOL = 1e-9
BOUND_TOL = 1e-9

GRID_SHA256 = {
    "surface": "34174a8b62ef5e142347f031cf9660c90e23c18d393612f28f91ae08a6a26557",
    "sweep-xi": "a8d9b0d5beb15b268801fd22c344743b8f6293cd44d8a1b20e26351d77a06b50",
    "sweep-theta": "292f0c5eca3764317dff2430417a7d44beb5b15a486c21e662abe998d9f9ed35",
    "bounds": "d8e30306e384e5f579a96f2ce40a3214b20096bac1c1743b0e86ed0b55e72b13",
}

SIMULATE_HEADER = b"theta,xi,s_hat,std_err,s_ideal"
SAMPLE_HEADER = b"index,s_sample,sample_min,sample_max,s_qmin,s_qmax"


class CheckError(Exception):
    """An output that the workload's checks reject."""


@dataclass(frozen=True)
class Invocation:
    """One CLI call: its argv without ``--out`` and the check on its output.

    ``check`` takes the output bytes and their sha256 and returns the number
    of data rows, or raises CheckError.
    """

    argv: tuple[str, ...]
    check: Callable[[bytes, str], int]


@dataclass(frozen=True)
class Workload:
    name: str
    stochastic: bool
    invocations: Callable[[int], tuple[Invocation, ...]]


def pass_seeds(workload_seed: int) -> Iterator[int]:
    """The CLI seeds of successive passes, a pure function of the workload seed."""
    rng = random.Random(workload_seed)
    while True:
        yield rng.getrandbits(63)


def _fmt(value: float) -> str:
    return f"{value:.12g}"


def s_closed_form(theta: float, xi: float) -> float:
    return (3 * math.cos(theta) - math.cos(3 * theta)) * math.cos(2 * xi) + (
        math.sin(theta) - math.sin(3 * theta)
    ) * math.sin(2 * xi)


def _lines(data: bytes, header: bytes) -> list[bytes]:
    if not data.endswith(b"\n"):
        raise CheckError("output does not end with a newline")
    lines = data[:-1].split(b"\n")
    if lines[0] != header:
        raise CheckError(f"header {lines[0][:80]!r} is not {header!r}")
    return lines[1:]


def _check_pinned(command: str) -> Callable[[bytes, str], int]:
    def check(data: bytes, digest: str) -> int:
        if digest != GRID_SHA256[command]:
            raise CheckError(f"{command} sha256 {digest} is not the pinned {GRID_SHA256[command]}")
        return data.count(b"\n") - 1

    return check


def _check_simulate(thetas, xis, replications: int) -> Callable[[bytes, str], int]:
    shrink = (1.0 - DEFAULT_ACCIDENTALS) * DEFAULT_VISIBILITY

    def check(data: bytes, digest: str) -> int:
        rows = _lines(data, SIMULATE_HEADER)
        expected_rows = len(thetas) * len(xis) * replications
        if len(rows) != expected_rows:
            raise CheckError(f"{len(rows)} rows, expected {expected_rows}")
        index = 0
        for theta in thetas:
            for xi in xis:
                ideal = s_closed_form(theta, xi)
                for _ in range(replications):
                    fields = rows[index].split(b",")
                    index += 1
                    if len(fields) != 5 or fields[0].decode() != _fmt(theta) or fields[1].decode() != _fmt(xi):
                        raise CheckError(f"row {index} is {rows[index - 1]!r}, expected theta={theta!r} xi={xi!r}")
                    s_hat, std_err, s_ideal = (float(f) for f in fields[2:])
                    if abs(s_ideal - ideal) > CLOSED_FORM_TOL:
                        raise CheckError(f"row {index}: s_ideal {s_ideal!r} is not the closed form {ideal!r}")
                    if not (std_err > 0.0 and abs(s_hat - shrink * ideal) <= SIGMAS * std_err):
                        raise CheckError(
                            f"row {index}: s_hat {s_hat!r} is not within {SIGMAS:g} x std_err "
                            f"{std_err!r} of (1-f)*v*S = {shrink * ideal!r}"
                        )
        return len(rows)

    return check


def _check_sample(theta: float, n: int) -> Callable[[bytes, str], int]:
    def check(data: bytes, digest: str) -> int:
        if not data.startswith(SAMPLE_HEADER + b"\n") or not data.endswith(b"\n"):
            raise CheckError("sample output lacks its header or final newline")
        lines = data.count(b"\n")
        if lines != n + 2:
            raise CheckError(f"{lines - 2} sample rows, expected {n}")
        summary = data[data.rindex(b"\n", 0, len(data) - 1) + 1 : -1].split(b",")
        if len(summary) != 6 or summary[0] != b"summary" or summary[1] != b"":
            raise CheckError(f"malformed summary row {b','.join(summary)!r}")
        s_min, s_max, q_min, q_max = (float(f) for f in summary[2:])
        try:
            table = np.loadtxt(io.BytesIO(data), delimiter=",", usecols=(0, 1), skiprows=1, max_rows=n)
        except ValueError as exc:
            raise CheckError(f"unparsable sample rows: {exc}") from exc
        index, s = table[:, 0], table[:, 1]
        if not np.array_equal(index, np.arange(n, dtype=np.float64)):
            raise CheckError("sample indices are not 0..n-1")
        spectral = 2.0 * math.sqrt(1.0 + math.sin(2.0 * theta) ** 2)
        if abs(q_max - spectral) > BOUND_TOL:
            raise CheckError(f"s_qmax {q_max!r} is not 2*sqrt(1+sin^2 2theta) = {spectral!r}")
        if s.min() < q_min - BOUND_TOL or s.max() > q_max + BOUND_TOL:
            raise CheckError(f"samples span [{s.min()!r}, {s.max()!r}], outside [{q_min!r}, {q_max!r}]")
        if _fmt(float(s.min())) != _fmt(s_min) or _fmt(float(s.max())) != _fmt(s_max):
            raise CheckError("summary min/max disagree with the sample column")
        return n + 1

    return check


def _grid(seed: int) -> tuple[Invocation, ...]:
    # The seed changes the argv but must not change the bytes: grid output uses no RNG.
    return tuple(
        Invocation((command, "--seed", str(seed)), _check_pinned(command)) for command in GRID_SHA256
    )


def _simulate_many(seed: int) -> tuple[Invocation, ...]:
    argv = ("simulate", "--pairs", "10000", "--replications", "20", "--seed", str(seed))
    return (Invocation(argv, _check_simulate(DEFAULT_ANGLES, DEFAULT_ANGLES, 20)),)


def _simulate_deep(seed: int) -> tuple[Invocation, ...]:
    argv = (
        "simulate", "--theta-list", PI_4, "--xi-list", "0",
        "--pairs", "1000000000", "--replications", "5", "--seed", str(seed),
    )
    return (Invocation(argv, _check_simulate((float(PI_4),), (0.0,), 5)),)


def _sample(seed: int) -> tuple[Invocation, ...]:
    argv = ("sample", "--theta", PI_4, "--n", "1000000", "--seed", str(seed))
    return (Invocation(argv, _check_sample(float(PI_4), 1_000_000)),)


WORKLOADS = {
    w.name: w
    for w in (
        Workload("grid", False, _grid),
        Workload("simulate_many", True, _simulate_many),
        Workload("simulate_deep", True, _simulate_deep),
        Workload("sample", True, _sample),
    )
}
