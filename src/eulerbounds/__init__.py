"""Exact-arithmetic bounds for (1+1/n)^n, their certificates, and consequences.

The package derives the optimal rational approximation of
(1/e)(1+1/n)^n, certifies the two-sided inverse-power bounds on [1, oo)
with machine-checkable convexity certificates, squeezes the normalized
difference sequence to its limit 1 with second-order rate 1/24, and
verifies the sharpened weighted-mean (Carleman-type) weight families.
All trusted computation is exact rational arithmetic; rigorous numeric
claims use rational-endpoint enclosures with outward rounding.
"""

from .algebra import PoleError, Poly, RatFunc, poly_gcd, rat_str
from .carleman import (ChainReport, TestSequence, WeightScheme, carleman_sums,
                       epsilon_term, polya_identities, telescoping_weight,
                       termwise_weight_chain, weight, weight_over_e)
from .enclosure import (DEFAULT_WIDTH, CheckResult, DomainError, RatInterval,
                        RefinementExhausted, SoundnessError, check_classic_at,
                        check_certified_at, euler_number_interval,
                        integer_nth_root, ln1p_to_width, normalized_below,
                        normalized_euler_interval, nth_root_interval)
from .keller import (ConvergenceRow, DegreeMismatch, convergence_table,
                     display_forms, keller_term, sandwich_bounds,
                     sandwich_limits)
from .prover import (DenominatorSignUnknown, PolynomialMatch, ProofReport,
                     Refutation, SignCertificate, log_gap_second_derivative,
                     match_reference_polynomials, poly_sign_certificate,
                     prove_bound, render_certificate, sign_certificate)
from .series import (BoundSpec, DegenerateSystem, NonzeroConstantTerm,
                     OptimalParams, ParamPoly, Series, Variant,
                     bare_optimal_bound, euler_ratio_series, expand_bound_gap,
                     expand_relative_error, log_gap_series, lower_bound,
                     series_exp_compose, series_log, series_log1p,
                     solve_optimal_params, upper_bound,
                     xlog1p_minus_one_series)

__version__ = "0.1.0"
