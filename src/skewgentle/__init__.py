"""Skewed-gentle bound quivers: validation, constructions, and invariants."""

from .algebra import (
    BasisPath,
    CornerData,
    basis,
    corner_data,
    dimension,
    dimension_oracle,
)
from .construct import (
    CommRelation,
    GPairLabels,
    SgArrow,
    SgPresentation,
    SignedVertex,
    build_g_pair,
    build_sg_presentation,
    build_sp_pair,
)
from .cycles import (
    CycleClass,
    SingularityDescriptor,
    descriptor_g,
    descriptor_gentle,
    full_cycles,
    gldim_flags,
    lift_cycles,
    sign_sequences,
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
    is_gentle,
    validate_skewed_gentle,
)

__version__ = "0.1.0"
