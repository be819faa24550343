"""Convex similarity index, ADMM missing-sample recovery, FIR denoising."""

from .baselines import BaselineConfig, fista_solve, hard_threshold, iht_adaptive_solve
from .core import (
    CsimParams,
    apply_kernel,
    apply_kernel_sqrt,
    csim_pair,
    csim_stats,
    kernel_eigenvalues,
    quadratic_form,
    sensitivity_ratio,
)
from .denoise import (
    FirFilter,
    PatchStats,
    csim_filter,
    denoise_image,
    empirical_stats,
    mse_filter,
)
from .dictionaries import (
    Dictionary,
    dct_dictionary,
    haar_wp_dictionary,
    normalize_columns,
    spectral_norm_sq,
)
from .fileio import load_csv_vector, load_pgm, save_csv_vector, save_pgm
from .metrics import mse, psnr, relative_error, ssim_global
from .paramselect import (
    KappaBound,
    RatioSelection,
    RipBound,
    condition_number,
    kappa_ratio_bound,
    mutual_coherence,
    rip_ratio_bound,
    select_ratio,
    verify_rip_bruteforce,
)
from .signals import (
    PatchGrid,
    SamplingMask,
    SyntheticSparseSignal,
    apply_mask,
    extract_patches,
    random_mask,
    reassemble,
    substream,
    substreams,
    synth_sparse_signal,
)
from .solver import (
    RecoveryResult,
    SolverConfig,
    kkt_residuals,
    soft_threshold,
    solve,
)

__version__ = "0.1.0"
