"""Numeric tolerances shared across the package, and the one refutation
margin.

All comparisons against these are absolute. They are pinned here so every
module agrees on what counts as zero. Every UNSAT that an interval shows
rests on `apart`, the one test of two intervals against EPS_BOUND; only the
point scans that choose a repair move (`simplex.out_of_bounds`,
`resolve_violation` and `bound_step`) compare against EPS_BOUND inline.
"""

# Witness validation: a counterexample must violate the property with at most
# this much slack when forward-evaluated, and sit inside the input box up to
# the same slack.
EPS_SAT = 1e-6

# Pivot elements smaller than this are treated as zero (singular).
EPS_PIVOT = 1e-8

# Bound comparisons: violation and UNSAT margins.
EPS_BOUND = 1e-7


def apart(lo1: float, hi1: float, lo2: float, hi2: float) -> bool:
    """Do the intervals [lo1, hi1] and [lo2, hi2] miss each other by more
    than EPS_BOUND? An infinite end on either side is allowed."""
    return lo1 > hi2 + EPS_BOUND or hi1 < lo2 - EPS_BOUND


# A pre-activation interval that its sign assertion empties by at most this
# much is taken as float rounding of the back-substitution and collapses to a
# point; a wider crossing makes the branch infeasible.
EPS_COLLAPSE = 1e-12

# Tableau coefficients below this are stored as zero.
COEF_EPS = 1e-12

# ReLU pair check: |alpha(post) - max(0, alpha(pre))| above this counts as a
# violation. Kept far below EPS_SAT so satisfied states survive the exact
# forward re-evaluation of their witness.
EPS_RELU = 1e-9

# LP iteration cap factor: cap = LP_ITER_FACTOR * (rows + cols).
LP_ITER_FACTOR = 50

# Outward padding applied to LP optima used as bounds, so simplex rounding
# error can never make a tightened bound exclude a feasible point.
EPS_LP = 1e-9
