"""Exact integer simulation of gap-valued computations and their promise classes."""

from .errors import (
    AmplitudeError,
    BoundsError,
    CategoricalityError,
    DecodeError,
    DomainError,
    GapsimError,
    ModelError,
    OracleError,
    ParseError,
    PromiseViolation,
    ResourceError,
    StructuralError,
)
from .evolve import (
    AmplitudeVector,
    ExactProbability,
    accept_probability,
    evolve,
    float_check,
    path_sum,
)
from .gapp import (
    ClassCertificate,
    GapMachine,
    bqp_to_awpp,
    check_awpp,
    check_ceqp,
    check_lwpp,
    check_pp,
    eqp_to_lwpp,
    exp_sum,
    gap_of,
    negate,
    poly_product,
    system_to_gap_machine,
)
from .lowness import (
    LownessInstance,
    OracleGapMachine,
    inline_construction,
    true_gap,
    verify_sign_preservation,
)
from .model import (
    MachineFamily,
    UnitarySystem,
    build_system,
    load_system,
    make_system,
)
from .oracle import (
    OracleAssignment,
    OracleQuerySystem,
    SensitivityParams,
    TowerCondition,
    acceptance_prob_rel,
    rerelativized_decide,
    tower,
    verify_flip_stability,
)
from .strings import pair, unpair

__version__ = "0.1.0"
