"""Bivariate beta distribution built from a four-component Dirichlet.

The pair (X, Y) is formed by summing shares of a Dirichlet vector so that
each margin is beta-distributed while the shared share induces dependence
with correlations spanning most of (-1, 1).  The package provides exact
moments and correlation, density evaluation (closed forms where they
exist, adaptive quadrature everywhere), samplers for the bivariate and
trivariate versions, moment-matching estimation, and sampler/density
implementations of the classical comparison families.
"""

from .baselines import (ArnoldParams, LibbyNovickParams, pdf_libby_novick,
                        pdf_three_param, sample_arnold, sample_libby_novick)
from .construction import (AlphaBivariate, AlphaTrivariate, RandomStream,
                           sample_bivariate, sample_dirichlet, sample_trivariate)
from .density import (DensityArrays, DensityValue, Region, classify_region, pdf,
                      pdf_closed_form, pdf_grid, pdf_points, pdf_quadrature)
from .errors import (BibetaError, ConvergenceError, DegenerateDataError,
                     DomainError, InfeasibleMomentsError)
from .fitting import (FitOptions, FitResult, alpha_sum_bound, fit_data,
                      fit_moments, initial_guess, objective,
                      sample_central_moments)
from .moments import (MomentVector, central_moment, correlation,
                      correlation_table, mixed_moment, moment_vector)
from .special import (IntegrandSpec, QuadratureResult, appell_f1, hyp2f1,
                      integrate_unit, ln_beta_multi)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "BibetaError", "DomainError", "ConvergenceError",
    "InfeasibleMomentsError", "DegenerateDataError",
    "ln_beta_multi", "IntegrandSpec", "QuadratureResult",
    "integrate_unit", "hyp2f1", "appell_f1",
    "AlphaBivariate", "AlphaTrivariate", "RandomStream",
    "sample_dirichlet", "sample_bivariate", "sample_trivariate",
    "Region", "classify_region", "DensityValue", "DensityArrays",
    "pdf", "pdf_closed_form", "pdf_quadrature", "pdf_points", "pdf_grid",
    "MomentVector", "moment_vector", "correlation", "correlation_table",
    "mixed_moment", "central_moment",
    "FitOptions", "FitResult", "sample_central_moments", "alpha_sum_bound",
    "objective", "initial_guess", "fit_moments", "fit_data",
    "LibbyNovickParams", "ArnoldParams",
    "sample_libby_novick", "pdf_libby_novick", "pdf_three_param", "sample_arnold",
]
