"""CHSH correlation bounds and coincidence-counting simulation.

The public API lives in the submodules: ``chshlab.chsh``, ``chshlab.expsim``,
``chshlab.linalg``, ``chshlab.rng`` and ``chshlab.cli``.
"""

__version__ = "0.1.0"
