import pytest

from opaque_planner import automata
from opaque_planner.ltlf import dfa_over_model_labels
from opaque_planner.planner import product_mdp
from opaque_planner.scenarios import running_example
from opaque_planner.transducer import opaque_obs_dfa


@pytest.fixture(scope="session")
def model():
    return running_example()


@pytest.fixture(scope="session")
def task_dfa(model):
    return dfa_over_model_labels("F s4", model)


@pytest.fixture(scope="session")
def secret_dfa(model):
    return dfa_over_model_labels("F s6", model)


@pytest.fixture(scope="session")
def opaque_dfa(model, secret_dfa):
    return opaque_obs_dfa(model, secret_dfa)


@pytest.fixture(scope="session")
def pm(model, task_dfa, opaque_dfa):
    return product_mdp(model, task_dfa, opaque_dfa)


@pytest.fixture(scope="class")
def colliding_hash():
    """Every row hashes alike, the splitmix64 multipliers zeroed, so
    ``automata.signature_classes`` meets a collision wherever a head holds
    two different states; yields the list of the tables that its lexsort
    fallback, ``automata.row_classes``, has ranked since."""
    ranked = []
    lexsort = automata.row_classes
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(automata, "_MIX", (0, 0))
        mp.setattr(automata, "row_classes", lambda table: ranked.append(table) or lexsort(table))
        yield ranked
