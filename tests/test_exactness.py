"""The exactness ledger: every deterministic cell of the default outputs against 40-digit mpmath.

Each output is written through main(argv); each deterministic column is computed
again at 40 significant digits from the same double inputs, and a cell counts as
misrounded when its %.12g text differs from the correctly rounded 12-digit text
of that value.  Each count is bounded by the figure measured when the ledger was
added, and a comment names the item (ROADMAP.md) that lowers it.  A change that
moves these bytes lowers its bounds in the same change; a bound is never raised.
"""

import csv
import decimal
import functools

import pytest

from chshlab.cli import DEFAULT_ANGLE_LIST, main, parse_grid

mpmath = pytest.importorskip("mpmath")

DIGITS = 40
TWELVE = decimal.Context(prec=12, rounding=decimal.ROUND_HALF_EVEN)

DEFAULT_GRID = parse_grid(None)
DEGREE_GRID = parse_grid("0:180:721", degrees=True)


def correctly_rounded(value) -> str:
    """The %.12g text of the 12-significant-digit rounding of an mpmath value."""
    # A 12-digit decimal survives the trip through the nearest double, as any of at most 15 digits does.
    return "%.12g" % float(TWELVE.plus(decimal.Decimal(mpmath.nstr(value, DIGITS))))


@functools.cache
def cos_sin(angle, multiple):
    """cos and sin of multiple * angle at DIGITS digits, for a double angle; each grid axis computes them once."""
    with mpmath.workdps(DIGITS):
        x = multiple * mpmath.mpf(angle)
        return mpmath.cos(x), mpmath.sin(x)


def s_exact(theta, xi):
    """S at the settings (2 theta, 0 | theta, 3 theta) on the state family: A cos 2xi + C sin 2xi."""
    # The two terms cancel near the zeros of S, but no cell's |S| is below 8e-17, which leaves over 20 digits.
    (c1, s1), (c3, s3), (c2xi, s2xi) = cos_sin(theta, 1), cos_sin(theta, 3), cos_sin(xi, 2)
    return (3 * c1 - c3) * c2xi + (s1 - s3) * s2xi


def s_max_exact(theta):
    """The Bell operator's largest eigenvalue, 2 sqrt(1 + sin^2 2 theta) (Landau 1987)."""
    return 2 * mpmath.sqrt(1 + cos_sin(theta, 2)[1] ** 2)


def misrounded(argv, tmp_path, inputs, columns) -> dict:
    """For each column name, the number of its cells whose text differs from the correctly rounded value.

    ``inputs`` gives each row's double inputs, in row order; ``columns`` maps a
    column name to the exact value of its cell from those inputs.
    """
    out = tmp_path / "out.csv"
    assert main([*argv, "--out", str(out)]) == 0
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == len(inputs)
    counts = dict.fromkeys(columns, 0)
    with mpmath.workdps(DIGITS):
        for row, args in zip(rows, inputs):
            for name, exact in columns.items():
                counts[name] += row[name] != correctly_rounded(exact(*args))
    return counts


def test_correctly_rounded_text():
    with mpmath.workdps(DIGITS):
        assert correctly_rounded(mpmath.mpf(2.5)) == "2.5"
        assert correctly_rounded(mpmath.mpf(0)) == "0"
        assert correctly_rounded(2 * mpmath.sqrt(2)) == "2.82842712475"
        assert correctly_rounded(-mpmath.mpf("1.2345678901249999e-17")) == "-1.23456789012e-17"
        assert correctly_rounded(mpmath.mpf("1234567890125.00000001")) == "1.23456789013e+12"


def test_surface(tmp_path):
    inputs = [(t, x) for t in DEFAULT_GRID for x in DEFAULT_GRID]
    counts = misrounded(["surface"], tmp_path, inputs, {"s": s_exact})
    assert counts["s"] <= 29  # item 3b: the probability kernel cancels near the zeros of S


def test_sweep_xi(tmp_path):
    inputs = [(t, x) for t in DEFAULT_ANGLE_LIST for x in DEFAULT_GRID]
    counts = misrounded(["sweep-xi"], tmp_path, inputs, {"s": s_exact})
    assert counts["s"] <= 7  # item 3b


def test_sweep_theta(tmp_path):
    inputs = [(t, x) for x in DEFAULT_ANGLE_LIST for t in DEFAULT_GRID]
    columns = {
        "s": s_exact,
        "s_qmin": lambda t, x: -s_max_exact(t),
        "s_qmax": lambda t, x: s_max_exact(t),
    }
    counts = misrounded(["sweep-theta"], tmp_path, inputs, columns)
    assert counts["s"] <= 6  # item 3b
    assert counts["s_qmin"] <= 0 and counts["s_qmax"] <= 0


@pytest.mark.parametrize(
    "argv, grid, quantum_max, gap",
    [
        (["bounds"], DEFAULT_GRID, 0, 5),
        (["bounds", "--theta-grid", "0:180:721", "--degrees"], DEGREE_GRID, 0, 16),
    ],
    ids=["bounds", "bounds-degrees-721"],
)
def test_bounds(argv, grid, quantum_max, gap, tmp_path):
    columns = {
        "quantum_max": s_max_exact,
        # 2 sqrt 2 - s_max written without its cancellation: (2 sqrt 2)^2 - s_max^2 = 4 cos^2 2 theta.
        "superquantum_gap": lambda t: 4 * cos_sin(t, 2)[0] ** 2 / (2 * mpmath.sqrt(2) + s_max_exact(t)),
    }
    counts = misrounded(argv, tmp_path, [(t,) for t in grid], columns)
    assert counts["quantum_max"] <= quantum_max
    # item 2: CIRELSON_LIMIT - s_max cancels near theta = pi/4 and 3 pi/4; 4 cos^2 2theta / (2 sqrt 2 + s_max) does not
    assert counts["superquantum_gap"] <= gap


def test_simulate(tmp_path):
    inputs = [(t, x) for t in DEFAULT_ANGLE_LIST for x in DEFAULT_ANGLE_LIST]
    counts = misrounded(["simulate"], tmp_path, inputs, {"s_ideal": s_exact})
    assert counts["s_ideal"] <= 4  # item 3b
