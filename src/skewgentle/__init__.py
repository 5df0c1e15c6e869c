"""Skewed-gentle bound quivers: validation, constructions, and invariants."""

from .algebra import (
    BasisPath,
    CornerData,
    basis,
    corner_data,
    dimension,
    dimension_oracle,
    dimensions,
)
from .construct import (
    GPresentation,
    SgPresentation,
    build_g_presentation,
    build_sg_presentation,
    build_sp_pair,
)
from .cycles import (
    CycleClass,
    SingularityDescriptor,
    descriptor_g,
    descriptor_gentle,
    descriptors,
    full_cycles,
    gldim_flags,
    lift_cycles,
)
from .dsl import SourceSpan, parse, serialize
from .errors import (
    DanglingEndpoint,
    DuplicateName,
    GenerationExhausted,
    InfiniteDimensional,
    IntegrityError,
    InternalInconsistency,
    LimitExceeded,
    NameCollision,
    NotComposable,
    NotGentle,
    NotSkewedGentle,
    NotSpecial,
    ParseError,
    SkewGentleError,
    UnknownVertex,
)
from .generate import random_triple
from .quiver import (
    Arrow,
    BoundQuiver,
    Quiver,
    SkewedGentleTriple,
    build_quiver,
)
from .reports import (
    InvariantReport,
    build_invariant_report,
    descriptor_pretty,
    report_json,
    to_dot,
)
from .validate import (
    ValidationReport,
    Violation,
    admissible_special_sets,
    validate_skewed_gentle,
)

__version__ = "0.1.0"
