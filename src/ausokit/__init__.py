"""History-based simplex pivot rules on acyclic unique sink orientations.

Builds the three recursive lower-bound families (round-robin,
least-recently-basic, least-entered), runs the rules under the
vertex-oracle model, and verifies the structural and behavioral claims at
desk scale.
"""

from .cube_core import (
    Face,
    OrientationOracle,
    TableOracle,
    UniformOracle,
    face_sink,
)
from .combinators import ProductOracle
from .pivot_engine import (
    CunninghamState,
    JohnsonState,
    Trace,
    ZadehState,
    balance_of,
    is_saturated,
    run_to_sink,
)
from .constructions import (
    ConstructionLevel,
    build_reset,
    realize_level,
    realize_range,
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
    validate_all,
    validate_family,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
