"""roblaw: numerical verification of robustness laws for two-layer
networks in random-features and neural-tangent-kernel regimes."""

from .activations import (
    ActivationKind,
    CurvatureCoeffs,
    act_deriv,
    act_eval,
    curvature_coeffs,
    induced_kappa_quadrature,
    kappa_tilde,
    phi_profile,
)
from .analyze import analyze_descent, analyze_law, asymptotics
from .data import Dataset, gen_dataset
from .errors import (
    InvalidArgument,
    IoError,
    NumericFailure,
    ResourceLimit,
    RoblawError,
    SingularKernel,
    UnsupportedActivation,
)
from .fit import (
    FeatureModel,
    KernelModel,
    LinearModel,
    ridgeless_norm_limit,
    rkhs_norm,
    test_mse,
    train_mse,
)
from .kernels import (
    DotProductKernel,
    FeatureMap,
    empirical_gram,
    features,
    gram_dot,
    kernel_profile,
    kernel_profile_deriv,
    model_gradient,
)
from .sobolev import (
    SobolevEstimate,
    eta_proxy,
    poincare_lower_bound,
    sobolev_analytic,
    sobolev_monte_carlo,
)
from .spectral import (
    LinearizationCoeffs,
    SpectrumSummary,
    c_phi_monte_carlo,
    c_sigma_cov,
    c_sigma_sobolev,
    gram_spectrum,
    linearized_c,
    mp_atom,
    mp_cdf,
    mp_edges,
    mp_integral,
    op_distance,
    relu_cov_linearization,
    sym_eigs,
)
from .sphere import SphereSample, moment_cpq, sample_sphere
from .sweep import SweepConfig, TrialCell, TrialRecord, run_sweep, run_trial

__version__ = "0.1.0"
