"""Coverage experiments: how the parity classes fill the real line.

Odd families only ever produce j below 1728, creeping up to it as the
denominator bound grows but never touching it; even families cover both sides.
Complex mode scatters seeded random odd-group images over the plane. Reports
are deterministic and serialize to CSV or JSON.
"""

from cmparity import TauExact, emit
from cmparity.density import DensityConfig, sample_complex, sample_even, sample_odd

odd_base = TauExact(1, -1, 1)  # j = 0, parity odd

print("== odd mode: refinement toward 1728 from below ==")
for bound in (9, 99, 999):
    cov = sample_odd(DensityConfig(base=odd_base, denom_bound=bound))
    print(
        f"  N={bound:>3}: {len(cov.samples):>6} samples, "
        f"max_j = {cov.max_j:.10f} (gap to 1728: {1728 - cov.max_j:.3e}), "
        f"all below 1728: {cov.all_below_1728}"
    )

print()
print("== even mode: both sides of 1728 ==")
for base in (TauExact(1, 0, 1), TauExact(1, 0, 3)):
    cov = sample_even(DensityConfig(base=base, denom_bound=9))
    above = sum(1 for s in cov.samples if s.j.real >= 1728)
    below = len(cov.samples) - above
    print(
        f"  base disc {base.disc:>4}: {above} samples at or above 1728, "
        f"{below} below; branch counts {cov.branch_counts}"
    )

print()
print("== complex mode: seeded scatter ==")
cov = sample_complex(
    DensityConfig(base=odd_base, draws=2000, seed=42, bin_width=100.0)
)
print(
    f"  2000 draws (seed 42): {cov.bins_hit} bins of width {cov.bin_width} hit "
    f"inside the default rectangle"
)

print()
print("== first rows of the odd-mode CSV ==")
cov = sample_odd(DensityConfig(base=odd_base, denom_bound=5))
for line in emit(cov, "csv").decode().strip().split("\n")[:6]:
    print("  " + line)
