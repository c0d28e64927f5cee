"""1D monotone rearrangement between slice densities, exactly.

The map T matching the slice density of A onto that of B is piecewise linear
with rational breakpoints, so push-forward identities hold as rational
equalities and the slice-deficit decomposition of the combination measure is
evaluated piece by piece with certified error.
"""

import random
from fractions import Fraction

from bmstab.minkowski import deficit
from bmstab.scenarios import ScenarioSpec, generate_scenario
from bmstab.transport import (
    DensityProfile, monotone_rearrangement, slice_deficit, slice_density,
    transport_ratio_integral,
)
from bmstab.vset import LatticeSet

## Closed form: uniform mass on [0,1] pushed onto uniform mass on [0,1/2]

uni = DensityProfile((0, 1), (1,))
half = DensityProfile((0, Fraction(1, 2)), (2,))
T = monotone_rearrangement(uni, half)
print("T(1/3) =", T(Fraction(1, 3)), "   T'(s) =", T.derivative(0))
print("ratio integral  int |rho_A/rho_B(T) - 1| rho_A =",
      transport_ratio_integral(T))

## A random lattice pair: exact pieces, exact push-forward

rng = random.Random(12)
A = LatticeSet(2, 2, frozenset((rng.randrange(0, 5), rng.randrange(0, 5))
                               for _ in range(10)))
B = LatticeSet(2, 2, frozenset((rng.randrange(0, 5), rng.randrange(0, 5))
                               for _ in range(10)))
rho_A, rho_B = slice_density(A), slice_density(B)
T = monotone_rearrangement(rho_A, rho_B)
print(f"\nrandom pair: {len(T.pieces)} transport pieces,"
      f" monotone = {T.is_monotone()},"
      f" push-forward residual = {T.pushforward_residual()}")

rep = slice_deficit(A, B, Fraction(1, 2))
print(f"slice-deficit integral in [{float(rep.integral_lo):.6f},"
      f" {float(rep.integral_hi):.6f}],"
      f" combination bound in [{float(rep.lhs_lo):.6f}, {float(rep.lhs_hi):.6f}]")
print(f"pointwise slice gaps all nonnegative: {rep.e_min_lo >= 0}")

## Sweep: the transport-ratio integral decays with the deficit

print("\n  delta_norm    ratio integral")
for eps, m in ((Fraction(1, 4), 16), (Fraction(1, 40), 32),
               (Fraction(1, 400), 64), (Fraction(1, 4000), 128)):
    spec = ScenarioSpec(family="boundary-bites", n=2, denom=m, eps=eps, seed=2)
    A, B = generate_scenario(spec)
    rho_A, rho_B = slice_density(A), slice_density(B)
    T = monotone_rearrangement(rho_A, rho_B)
    d = deficit(A, B, Fraction(1, 2)).delta_norm
    r = transport_ratio_integral(T)
    print(f"  {float(d):10.2e}    {float(r):10.2e}")
