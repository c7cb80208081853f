"""Exact-arithmetic bounds for (1+1/n)^n, their certificates, and consequences.

The package derives the optimal rational approximation of
(1/e)(1+1/n)^n, certifies the two-sided inverse-power bounds on [1, oo)
with machine-checkable convexity certificates, squeezes the normalized
difference sequence to its limit 1 with second-order rate 1/24, and
verifies the sharpened weighted-mean (Carleman-type) weight families.
All trusted computation is exact rational arithmetic; rigorous numeric
claims use rational-endpoint enclosures with outward rounding.
"""

__version__ = "0.1.0"
