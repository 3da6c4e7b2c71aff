"""haargap: exact entropy machinery for diagonal flows on SL_n quotients.

Root systems, Lyapunov spectra and entropy bounds in rational arithmetic;
enumeration of admissible ergodic-component supports; an exact linear program
bounding the Haar-component weight from below; and floating-point validation
of the almost-orthogonality and oscillatory-decay estimates behind the bounds.
"""

from .entropy import (
    FastSlowSplit,
    LyapunovSpectrum,
    conjectured_entropy_bound,
    entropy_lower_bound,
    fast_slow_split,
    haar_entropy,
    lyapunov_spectrum,
)
from .rigidity import (
    LPModel,
    LPSolution,
    RigidityProblem,
    VertexReport,
    build_lp,
    default_test_directions,
    extremal_vertex_report,
    extreme_direction,
    inner_weight_formula,
    lattice_supports,
    min_haar_weight,
    rigidity_problem,
    solve_lp,
    solve_min_haar,
    verify_solution,
)
from .roots import (
    CartanElement,
    Root,
    RootSystem,
    build_type_a,
    cartan,
    dominant_representative,
    evaluate_root,
    is_regular,
    weyl_orbit,
)
from .supports import (
    CapacityError,
    Partition,
    enumerate_block_partitions,
    enumerate_symmetric_closed,
)

__version__ = "0.1.0"

# The float layer needs numpy; it is imported when one of its names is first read.
_FLOAT_NAMES = ("TOLERANCES", "CotlarCheck", "MatrixFamily", "OscillatoryDecay",
                "OscillatoryProblem", "cotlar_bound_check", "operator_norm", "smooth_bump",
                "orthogonal_projector_family", "oscillatory_decay", "run_validation_suite")


def __getattr__(name):
    if name in _FLOAT_NAMES:
        from . import cotlar_stein
        return getattr(cotlar_stein, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *_FLOAT_NAMES})
