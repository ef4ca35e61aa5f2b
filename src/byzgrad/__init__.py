"""Byzantine-resilient gradient coding over prime fields.

Library plus simulation harness: exact finite-field linear algebra, regular
data assignments, encoding matrix construction, the interactive
identification protocol, pluggable adversaries, and verification checks.
"""

from .assignment import (
    AssignmentMatrix,
    assignment_from_text,
    assignment_to_text,
    make_cyclic,
    make_fractional,
    make_random_regular,
    validate_regular,
)
from .adversary import (
    AdversaryStrategy,
    honest,
    pick_attack_support,
    random_corruption,
    symmetrization,
    tournament_liar,
)
from .coding import (
    CodeContext,
    EncodingMatrix,
    build_code_context,
    build_encoding_matrix,
    combining_vector,
    ecc_decode,
    response_matrix,
    restrict_encoding,
    worker_response,
)
from .field import DEFAULT_MODULUS, PrimeField, is_prime
from .harness import (
    METRICS_HEADER,
    RunMetrics,
    SimulationConfig,
    SweepReport,
    grid_configs,
    replay_transcript,
    run_simulation,
    run_sweep,
    write_transcript,
)
from .linalg import (
    LinearSolveOutcome,
    solve_linear,
    vandermonde,
)
from .protocol import (
    Agreement,
    Conflict,
    GroupingPlan,
    ProtocolResult,
    ProtocolRun,
    Query,
    SimulatedResponder,
    Transcript,
    detect_contradiction,
    form_groups,
    group_response,
    local_compute,
    pack_responses,
    run_protocol,
)

__version__ = "0.1.0"
