"""Numerical toolkit for convex bodies, parallel sets and mixed p-Laplacian
eigenvalues in hyperbolic space."""

__version__ = "0.1.0"

from .core import (
    ball_perimeter,
    ball_quermass,
    ball_volume,
    poincare_distance,
    quermass_inverse_radius,
    sphere_measure,
    QuermassVector,
)
from .bodies import (
    AnnularDomain2D,
    Body2D,
    ParallelCurve,
    RevolutionBody,
    make_ball,
    convexity_report,
    boundary_measures,
    curvature_integrals,
    quermassintegrals,
    parallel_perimeter_direct,
    parallel_volume,
    steiner_evaluate,
)
from .nagy import af_check, equivalent_ball, isoperimetric_check_2d, nagy_table
from .shell import ShellSpec, EigResult, shell_eigen, radial_profile_eval
from .fem2d import Mesh, build_mesh, eigen_p2, eigen_p_general
from .parallels import (
    annulus_match,
    build_parallel_table,
    distance_field,
    hersch_bound,
    interior_coords,
    parallel_length,
    rfk_verdict,
)
from .insulation import (
    InsulationSpec,
    fem_energy_p2,
    insulation_verdict,
    radial_energy,
    radial_energy_closed_form,
)

__all__ = [name for name in dir() if not name.startswith("_")]
