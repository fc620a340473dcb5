"""Golden outputs: the sha256 of CLI outputs at fixed flags and seeds.

Any change to an output byte fails here.  Tier-1 runs every case of CASES through
main(argv) (here and in tests/test_cli.py), and TestEntryPoints there checks that each
entry point reaches that main, so a new case is added here alone.  A deliberate
change, such as a new RNG stream, rewrites the digests with ``PYTHONPATH=src
python tests/test_golden.py``, which prints each case whose digest moved as
``name: old -> new``, and says so in CHANGES.md.
"""

import ast
import hashlib
import json
import tempfile
from pathlib import Path

import pytest

from chshlab.cli import main

PI_4 = "0.7853981633974483"
DIGEST_FILE = Path(__file__).parent / "golden" / "sha256.json"
BENCH_WORKLOADS = Path(__file__).parents[1] / "bench" / "workloads.py"

CASES = {
    "surface": ("surface",),
    "sweep-xi": ("sweep-xi",),
    "sweep-theta": ("sweep-theta",),
    "bounds": ("bounds",),
    # A degree grid puts near-zero S residues on cells the default grid lacks.
    "surface-degrees-37": ("surface", "--theta-grid", "0:180:37", "--xi-grid", "0:180:37", "--degrees"),
    "simulate": ("simulate", "--pairs", "10000", "--replications", "2", "--seed", "7"),
    # 1e7 pairs per setting pins the large-n binomial path.
    "simulate-large-n": (
        "simulate", "--theta-list", PI_4, "--xi-list", "0", "--pairs", "10000000", "--seed", "7",
    ),
    # Nonzero analyzer offsets, partial visibility and accidentals.
    "simulate-noisy": (
        "simulate", "--pairs", "10000", "--replications", "5", "--seed", "12",
        "--offset-a", "0.013", "--offset-b", "-0.021", "--visibility", "0.9", "--accidentals", "0.02",
    ),
    # Offsets large enough to wrap the analyzer angles, and a fully mixed state.
    "simulate-wrapped-mixed": (
        "simulate", "--pairs", "100000", "--replications", "3", "--seed", "13",
        "--offset-a", "3.5", "--offset-b", "-7", "--visibility", "0", "--accidentals", "0",
    ),
    # 1e9 pairs per setting: the experiment's scale, at which nearly all of the time is in the binomials.
    "simulate-deep": (
        "simulate", "--theta-list", PI_4, "--xi-list", "0", "--pairs", "1000000000", "--replications", "2",
        "--seed", "7",
    ),
    # No noise at 1e9 pairs: same-outcome probabilities of 9.3e-9, 3.7e-33 and 1 - 8.4e-13, so the binomials
    # have means near 0 or near the pair count.
    "simulate-ideal-deep": (
        "simulate", "--theta-list", f"0,{PI_4}", "--xi-list", "1.5707,1.5707963267948966,0.3927",
        "--pairs", "1000000000", "--seed", "11", "--visibility", "1", "--accidentals", "0",
    ),
    # 2,000 replications draw 20 times from each of the default lists' table rows.
    "simulate-many-reps": ("simulate", "--pairs", "10000", "--replications", "2000", "--seed", "5"),
    "sample": ("sample", "--theta", PI_4, "--n", "1000", "--seed", "3"),
    # Quarter-degree steps put many last-digit-sensitive gap rows near 45 and 135 degrees.
    "bounds-degrees-721": ("bounds", "--theta-grid", "0:180:721", "--degrees"),
    "sweep-theta-custom": ("sweep-theta", "--xi-list", "0.1,1.2,2.9", "--theta-grid", "0.01:3.1:97"),
    # The spectral bounds at a theta off the default grids.
    "sample-theta-0.3": ("sample", "--theta", "0.3", "--n", "1000", "--seed", "5"),
    # Enough rows to show last digits that move with numpy's SIMD dispatch; CI reruns tier-1 without it.
    "sample-100k": ("sample", "--theta", PI_4, "--n", "100000", "--seed", "3"),
}


def output_digest(argv, directory) -> str:
    out = Path(directory) / "out.csv"
    assert main([*argv, "--out", str(out)]) == 0
    return hashlib.sha256(out.read_bytes()).hexdigest()


@pytest.mark.parametrize("name", sorted(CASES))
def test_output_digest(name, tmp_path):
    expected = json.loads(DIGEST_FILE.read_text())
    assert output_digest(CASES[name], tmp_path) == expected[name]


def test_benchmark_pins_the_golden_digests():
    # Parsed, not imported, so that nothing is written under bench/.  A golden rewritten without the benchmark's
    # pin fails here rather than in the benchmark's output check.
    tree = ast.parse(BENCH_WORKLOADS.read_text())
    (pinned,) = [
        ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign) and [getattr(t, "id", None) for t in node.targets] == ["GRID_SHA256"]
    ]
    expected = json.loads(DIGEST_FILE.read_text())
    assert pinned and {name: expected.get(name) for name in pinned} == pinned


if __name__ == "__main__":
    old = json.loads(DIGEST_FILE.read_text())
    with tempfile.TemporaryDirectory() as tmp:
        digests = {name: output_digest(argv, tmp) for name, argv in sorted(CASES.items())}
    DIGEST_FILE.write_text(json.dumps(digests, indent=2) + "\n")
    for name, digest in digests.items():
        if old.get(name) != digest:
            print(f"{name}: {old.get(name)} -> {digest}")
