"""Follow-the-perturbed-leader oracles for online linear optimization.

:class:`FtplOracle` is a bank of N independent oracles held as arrays.  Row
r answers linear-loss prediction queries by running the constraint set's
LMO on its perturbed accumulated feedback::

    v_r = argmin_v  zeta * <sum of feedback to row r, v> + <noise_r, v>

with ``noise_r`` a fixed Uniform[0,1]^m draw that the caller supplies as
row r of an (N, m) array (the distributed engine draws a whole bank's rows
from one Generator with ``seeding.oracle_noise``).  A prediction depends
on history only through that sum, so the N queries of a bank are one
batched LMO call.  A single oracle is a bank with N = 1.
Fixing the perturbation keeps every run deterministic; the tests check
claims about the *expected* prediction over the noise distribution by
Monte-Carlo averages of the same LMO.

The learning rate ``zeta`` is always supplied by the caller — the algorithm
layer tunes it from quantities (total delay, horizon) an oracle cannot see.
"""

from __future__ import annotations

import numpy as np

from .geometry import ConstraintSet


class FtplOracle:
    """N independent follow-the-perturbed-leader oracles over one constraint set.

    Stores only each row's running sum of feedback vectors: predictions
    depend on history through that sum alone, so memory stays O(N m)
    regardless of the number of rounds.

    Args:
        cset: feasible set supplying the LMO.
        zeta: positive learning rate shared by every row.
        noise: (N, m) perturbations, one row per oracle of the bank.

    Attributes:
        noise: (N, m) perturbations.
        accum: (N, m) running feedback sums.
    """

    def __init__(self, cset: ConstraintSet, zeta: float, noise):
        if not (np.isfinite(zeta) and zeta > 0):
            raise ValueError(f"zeta must be positive, got {zeta}")
        noise = np.asarray(noise, dtype=np.float64)
        if noise.ndim != 2 or noise.shape[1] != cset.dim or not len(noise):
            raise ValueError(f"noise has shape {noise.shape}, expected (N >= 1, {cset.dim})")
        self.cset = cset
        self.zeta = float(zeta)
        self.noise = noise
        self.accum = np.zeros_like(noise)

    def query(self) -> np.ndarray:
        """(N, m) current predictions; pure, identical between feedback calls."""
        return self.cset.lmo_batch(self.zeta * self.accum + self.noise)

    def feedback(self, g) -> None:
        """Absorb one linear-loss gradient per row, g of shape (N, m), into the running sums."""
        g = np.asarray(g, dtype=np.float64)
        if g.shape != self.accum.shape:
            raise ValueError(f"feedback has shape {g.shape}, expected {self.accum.shape}")
        if not np.isfinite(g).all():
            raise ValueError("non-finite entries in feedback")
        self.accum = self.accum + g
