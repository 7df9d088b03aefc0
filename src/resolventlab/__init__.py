"""Resolvent-norm landscape analysis for dense complex matrices."""

__version__ = "0.1.0"

from .builders import (
    block_diag,
    connectivity_example,
    cyclic_matrix,
    example_last,
    multiplication_example,
    scaled_rotated,
    truncated_shift,
    type1_matrix,
    type2_matrix,
)
from .errors import ResolventLabError
from .gap import SpectralGapReport, gap_disk, riesz_projection, spectral_gap_report
from .growth import (
    ArcSet,
    GrowthCertificate,
    certify_local_min,
    growth_direction,
    increase_arcs,
    min_candidate_check,
    theta_arc,
    torus_coverage,
    verify_growth,
)
from .matcore import (
    ResolventValue,
    Spectrum,
    distance_to_spectrum,
    ensure_matrix,
    gram,
    resolvent_norm,
    spectrum,
)
from .matio import load_matrix, parse_complex, save_matrix
from .path import PolygonalPath, build_path, validate_path
from .perturb import (
    CubicOrderReport,
    cubic_order_sweep,
    hausdorff_distance,
    schur_complement,
    w_operator,
    w_tilde,
)
from .pspec import ComponentReport, PseudospectrumGrid, Region, components, contours, membership, scan
from .twobytwo import TwoByTwoClassification, classify, closed_form_norm, g_function, wh

__all__ = [name for name in dir() if not name.startswith("_")]
