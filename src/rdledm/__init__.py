"""Compressed-sensing dynamic-MRI reconstruction toolkit.

Reconstructs a dynamic image sequence from undersampled, noisy k-space
data. Ships a synthetic moving phantom, three undersampling mask
families, an acquisition simulator, two primal-dual solvers (TV +
nuclear norm, with and without a low-rank error decomposition), image
quality metrics, and a CLI that wires them into reproducible
experiments.
"""

__version__ = "0.1.0"

from .errors import (
    BadMagicError,
    CallbackError,
    ConfigError,
    DimensionError,
    DivergenceError,
    FileFormatError,
    HeaderError,
    InfeasibleRatioError,
    InvalidSpecError,
    NumericalError,
    PayloadSizeError,
    RdledmError,
)
from .sequence import (
    as_sequence,
    casorati,
    frobenius_norm,
    from_casorati,
    inner_product,
    read_sequence,
    write_sequence,
)
from .operators import (
    DualField,
    dft2_adjoint,
    dft2_forward,
    grad_adjoint,
    grad_forward,
    nuclear_norm,
    project_linf_ball,
    svt,
    tv_seminorm,
)
from .sampling import (
    achieved_ratio,
    adjoint_op,
    as_mask,
    forward_op,
    make_mask,
    measure,
    read_mask,
    write_mask,
    zero_fill,
)
from .phantom import (
    Ellipse,
    PhantomSpec,
    generate_phantom,
    phantom_preset,
    phantom_presets,
)
from .solver import (
    SolveReport,
    SolverConfig,
    SolverState,
    baseline_tvnn_solve,
    rdledm_solve,
    relative_error,
)
from .metrics import psnr, rmse
from .experiment import (
    ExperimentConfig,
    config_from_manifest,
    experiment_config_from_json,
    experiment_config_to_json,
    load_experiment_config,
    run_reconstruction,
    run_sweep,
    write_pgm_frames,
)
