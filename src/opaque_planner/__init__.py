"""Planning toolkit for probabilistic opacity and transparency.

Given a stochastic transition system with an observation function, a
secret formula and a task formula, the pipeline builds a DFA accepting
exactly the observation words an eavesdropper cannot resolve, products it
with the model and the task automaton, and solves an occupancy-measure LP
for a randomized policy that maximizes opacity (or transparency) subject
to a task-satisfaction threshold.
"""

__version__ = "0.1.0"

from .automata import (
    AlphabetMismatchError,
    Dfa,
    IncompleteDfaError,
    Nfa,
    complete,
    determinize,
    intersect,
    minimize,
)
from .ltlf import (
    LtlfError,
    LtlfSyntaxError,
    dfa_over_model_labels,
    ltlf_to_dfa,
    parse_ltlf,
)
from .model import (
    END,
    InvalidPlayError,
    Model,
    ModelError,
    ObsSymbol,
    Play,
    START,
    build_model,
    load_model,
    obs_of_play,
    validate,
)
from .planner import (
    LpModel,
    LpProblem,
    PlannerError,
    PolicySolution,
    ProductMdp,
    build_lp,
    export_lp,
    extract_policy,
    product_mdp,
    solve_lp,
)
from .scenarios import DroneConfig, GridworldConfig, Sensor, gridworld, running_example
from .simulate import RolloutStats, exact_policy_values, rollout
from .transducer import (
    OpaqueBuild,
    ProductFst,
    build_obs_fst,
    opaque_obs_dfa,
    opaque_pipeline,
    output_nfa,
    product_fst,
)

__all__ = [
    "AlphabetMismatchError", "Dfa", "IncompleteDfaError", "Nfa", "complete", "determinize",
    "intersect", "minimize",
    "LtlfError", "LtlfSyntaxError", "dfa_over_model_labels", "ltlf_to_dfa", "parse_ltlf",
    "END", "InvalidPlayError", "Model", "ModelError", "ObsSymbol", "Play", "START",
    "build_model", "load_model", "obs_of_play", "validate",
    "LpModel", "LpProblem", "PlannerError", "PolicySolution", "ProductMdp", "build_lp",
    "export_lp", "extract_policy", "product_mdp", "solve_lp",
    "DroneConfig", "GridworldConfig", "Sensor", "gridworld", "running_example",
    "RolloutStats", "exact_policy_values", "rollout",
    "OpaqueBuild", "ProductFst", "build_obs_fst", "opaque_obs_dfa", "opaque_pipeline",
    "output_nfa", "product_fst",
]
