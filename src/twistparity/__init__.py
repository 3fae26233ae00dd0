"""twistparity: exact local parity bookkeeping for quadratic twist families.

Given y^2 = f(x) with f separable of odd degree over Q, the package
computes the locally determined quantities that control how 2-Selmer
parity moves under quadratic twist: Frobenius cycle types and prime
classes, the bad set Sigma, the local invariants h_v and weights
omega_v, the parity-flip predictor and the disparity constant, plus
independent brute-force oracles (a permutation-module torsion model,
Lagrangian counting over F_2, the Hilbert product formula) and a
verification harness for the worked example curves.
"""

from .report import TOOL_VERSION as __version__  # noqa: F401
