"""The cut-offs of every verdict, one named row per rule.

Each row says, in its comment, what its value is compared with: an absolute
quantity, or a scale it is relative to.  Rows that share a value but not a
meaning stay separate rows.  Two rows are the defaults of command-line
flags: RECURRENCE_TOL (``verify --tol``) and EQUIVALENCE_TOL (``equiv
--tol``); no other row can be set from outside.
"""

# ---- the metric and the Weyl connection (tensor) ----
METRIC_SINGULAR = 1e-12  # relative to max |eigenvalue| of g: a least |eigenvalue| at or below it is singular
PIVOT_SINGULAR = 1e-14  # relative to max |g_ab|: a jet-inversion pivot at or below it is singular
COMPATIBILITY_TOL = 1e-10  # relative to max(1, max |g|): the residual of nabla g + 2 w (x) g passes at or below

# ---- recurrence ----
RECURRENCE_TOL = 1e-8  # relative to |nabla_e R| (absolute where that is at most RELATIVE_RESIDUAL_SWITCH)
NO_CURVATURE = 1e-13  # absolute, |R| (Frobenius): below it the point is flat and no theta is fitted
RELATIVE_RESIDUAL_SWITCH = 1e-8  # absolute, |nabla_e R|: above it the recurrence residual is divided by it
ONE_FORM_VANISHES = 1e-10  # absolute, |w|: at or below it no weight is fitted
PREFERRED_THETA_TOL = 1e-8  # absolute, max |theta + 3 w| on a preferred representative
WEIGHT_TOL = 1e-6  # absolute, |fitted weight - expected weight|

# ---- holonomy ----
HOLONOMY_RANK_TOL = 1e-7  # relative to the top singular value of the stacked R(e_a, e_b)

# ---- conformal flatness and Einstein-Weyl ----
CONFORMALLY_FLAT = 1e-9  # absolute, |C| (Frobenius): flat at or below
EINSTEIN_WEYL_TOL = 1e-9  # absolute, |Ric_sym - lam g| (Frobenius): Einstein-Weyl at or below
DKP_TOL = 1e-10  # absolute, |second-order potential residual| of the 3D holonomy-2 family
NOT_EINSTEIN_WEYL = 1e-3  # absolute, |Ric_sym - lam g|: "not Einstein-Weyl" needs the worst point above it

# ---- expression evaluation ----
INTEGER_POWER_LIMIT = 1000  # count: the largest |n| of an integer power x^n, which costs |n| - 1 products
EXPRESSION_DEPTH_LIMIT = 100  # count: the most nested nodes of a parsed expression, a parenthesis pair one more
TAN_POLE = 2.220446049250313e-16  # relative to max(1, |x|) (2**-52): |cos x| at or below it makes x a pole of tan

# ---- catalog probes ----
PROBE_NON_VANISHING = 1e-9  # absolute, |value| of a probed expression that must not vanish

# ---- differential invariants and signature curves ----
SINGULAR_STRATUM = 1e-10  # relative to the listed jet entries (floored): a denominator at or below it vanishes
SCALE_FLOOR = 1e-300  # absolute: the least scale a relative test multiplies or divides by
DEGENERACY_TOL = 1e-6  # relative to max(1, max |values|): a curve of diameter at or below it is a point
EQUIVALENCE_TOL = 1e-6  # relative to the larger curve diameter: Hausdorff distance at or below it is equivalent

# ---- symmetry kernels and classification ----
KERNEL_SV_TOL = 1e-9  # relative to the top singular value of the sampled symmetry system
# absolute on the unit kernel vector's a2 (and on a4^2 - a3 a5 where |a2| is at most it); else relative to a2^2
PATTERN_TOL = 1e-7
KERNEL_SAMPLES = 16  # count: sample points of a symmetry system
EVIDENCE_POINTS = 11  # count: evenly spaced points of the invariant evidence curve, ends included
