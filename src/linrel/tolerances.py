"""Numerical tolerances used across the package.

All rank decisions are made against the largest singular value of the
matrix at hand (relative cut) with an absolute floor for matrices that
are near zero altogether.  Subspace equality and containment tests are
gap-based.  These values are pinned here and echoed into every report
header so runs are reproducible and auditable.
"""

# Rank decisions (relative to largest singular value / absolute floor).
RANK_REL = 1e-9
RANK_ABS = 1e-12

# Subspace equality / containment (gap-based).
EQ_TOL = 1e-8

# Slack granted to scalar inequalities sampled numerically.
INEQ_SLACK = 1e-9

# Slack granted to the analytic gap / minimum-modulus bounds.
BOUND_SLACK = 1e-7

# Normalized singular values strictly inside this band make a rank
# decision indeterminate: too large to be noise, too small to trust.
SV_BAND = (1e-10, 1e-6)

# Containment gaps strictly inside this band flag a chain step as
# ill-conditioned; the chains suite records such a case indeterminate.
# The band straddles EQ_TOL as SV_BAND straddles RANK_REL, here two
# decades each side: a gap just over the cut ("not contained") is as
# fragile as one just under it ("contained"), so both are flagged.
CHAIN_BAND = (1e-10, 1e-6)

# Instances whose construction margin falls below this are rejected.
MIN_MARGIN = 1e-6


def tolerance_header() -> dict:
    """Tolerances in the form embedded into report headers."""
    return {
        "rank_rel": RANK_REL,
        "rank_abs": RANK_ABS,
        "eq_tol": EQ_TOL,
        "ineq_slack": INEQ_SLACK,
        "bound_slack": BOUND_SLACK,
    }
