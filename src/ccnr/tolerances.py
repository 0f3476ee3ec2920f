"""Every numerical tolerance of the package, each next to the rule that reads it."""

HERMITICITY_TOL = 1e-10  # hermiticity checks: max|h - h^dag| <= tol (1 + max|h|), per matrix
TRACE_TOL = 1e-10  # DensityOperator: |tr(rho) - 1| <= tol
PSD_TOL = 1e-10  # DensityOperator: smallest eigenvalue >= -tol
CHOLESKY_MARGIN = 2.0  # DensityOperator: chol(rho + (tol - this (n+2) eps (1+n tol)) I) => eig > -tol
NORM_TOL = 1e-12  # PureState: | ||psi|| - 1 | <= tol
SV_FLOOR = 1e-12  # states._thin_svd (both Schmidt forms): singular values <= floor are zeros
VIOLATION_GUARD = 1e-9  # verdicts: a criterion is violated past its threshold by more than this
GAMMA_EQUALITY_TOL = 1e-12  # verdicts, crossnorm robustness and separability: gamma = 1 within tol
WEIGHT_SLACK = 1e-12  # bell_spectrum: weights >= -slack; pure_from_schmidt too: |sum - 1| <= slack
CLIP_GUARD = 1e-8  # twirls: an expectation this far past its domain is clipped, beyond it refused
GRID_SLACK = 1e-9  # sweep --range: the last point may pass stop by this fraction of a step
