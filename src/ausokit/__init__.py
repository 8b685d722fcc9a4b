"""History-based simplex pivot rules on acyclic unique sink orientations.

Builds the three recursive lower-bound families (round-robin,
least-recently-basic, least-entered), runs the rules under the
vertex-oracle model, and verifies the structural and behavioral claims at
desk scale.
"""

from .cube_core import (
    Direction,
    Face,
    OrientationOracle,
    TableOracle,
    UniformOracle,
    apply_direction,
    face_sink,
    is_available,
    uniform_oracle,
)
from .combinators import (
    FrameAssignmentMap,
    external_outmap_uniform,
    materialize,
    product,
    reorient_face,
)
from .pivot_engine import (
    CunninghamState,
    JohnsonState,
    Trace,
    ZadehState,
    balance_of,
    cunningham_step,
    is_saturated,
    johnson_step,
    run_to_sink,
    zadeh_step,
)
from .constructions import (
    ConstructionLevel,
    build_reset,
    realize_level,
    realize_range,
    starting_vertex,
    tie_list,
)
from .verifier import (
    VerificationReport,
    check_acyclic,
    check_growth,
    check_trace_properties,
    check_uso_exhaustive,
    check_uso_sampled,
)
from .frame_store import (
    FrameSpec,
    load_frame,
    validate_all,
    validate_family,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
