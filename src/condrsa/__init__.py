"""Pragmatic reasoning about indicative conditionals over causal world models.

The package combines a threshold semantics for assertability with the
standard literal-listener / speaker / pragmatic-listener recursion, run
over world states that pair a joint probability table for two propositions
with a causal structure.  Hand-built scenarios evaluate in exact rational
arithmetic; large sampled contexts evaluate with vectorized floats.
"""

from .analysis import (
    A_IMPLIES_C,
    CertaintyCell,
    CertaintyClass,
    CheckResult,
    ContingencyUndefinedError,
    CPMetrics,
    DeltaPCohort,
    DeltaPCohorts,
    FrequencyCell,
    all_passed,
    best_utterance_frequencies,
    classify_certainty,
    cp_comparison,
    cp_metrics,
    default_context_checks,
    delta_p_cohorts,
    delta_p_star,
    expected_choice_probabilities,
    relation_beliefs,
)
from .context import ScenarioContext
from .core import (
    A,
    C,
    CausalStructure,
    ContextError,
    Event,
    ImpossibleObservationError,
    JointTable,
    ModelError,
    ProbabilityError,
    Scalar,
    State,
    Var,
    World,
    ZeroProbabilityEventError,
    ZeroSupportError,
    event_column,
    event_for,
    joint_from_marginals,
    joint_from_noisy_or,
    noisy_or_effect_probability,
    query,
)
from .default_context import (
    RELATION_PRIOR,
    build_default_context,
    sample_default_states,
    sample_relation,
)
from .engine import (
    Argmax,
    Posterior,
    Softmax,
    SpeakerRule,
    argmax_utterances,
    expectation,
    interpretations,
    literal_listener,
    literal_listener_matrix,
    pragmatic_listener,
    pragmatic_listener_matrix,
    prior_posterior,
    relation_posterior,
    speaker,
    speaker_matrix,
    surprise_vector,
    utterance_masses,
    utterance_surprise,
)
from .scenario_io import BUILTIN_NAMES, SKIING_UNCERTAIN_TRIP_VARIANT, builtin
from .scenarios import (
    ObservationLink,
    ScenarioDefinition,
    antecedent_belief,
    joint_event_belief,
    observation_update,
)
from .semantics import assertable, default_utterances
from .tolerances import TOLERANCES, ToleranceManifest
from .utterances import (
    Conditional,
    Conjunction,
    Likely,
    Lit,
    Literal,
    Utterance,
    UtteranceType,
    parse_utterance,
)

__version__ = "0.1.0"
