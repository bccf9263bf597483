"""The file readers raise only their own typed error on a wrong-typed
value anywhere in a document.

Each document is written from a built-in; then every field path (each
object key, and the first three items of each list, the document itself
too) is set to each of ``VALUES`` in turn, and the reader must load the
result or raise its typed error: ``ModelError`` for models and gridworld
configs, ``AutomatonError`` for DFAs, ``PlannerError`` for policies.  A DFA
that loads must also render.
"""

import copy
import json

import pytest

from opaque_planner.automata import AutomatonError, dfa_from_dict, dfa_to_dict
from opaque_planner.dot import dfa_to_dot
from opaque_planner.model import ModelError, model_from_dict, model_to_dict, validate
from opaque_planner.planner import (
    PlannerError,
    build_lp,
    extract_policy,
    policy_from_dict,
    policy_to_dict,
    solve_lp,
)
from opaque_planner.scenarios import GridworldConfig, config_from_dict, config_to_dict

#: the values every field path is set to
VALUES = (None, True, 3, 2.5, "x", [], ["x"], [1], {}, {"a": 1})


def paths(doc, path=()):
    """The path of ``doc`` and of every value in it, lists cut to their
    first three items."""
    yield path
    if isinstance(doc, dict):
        for key, value in doc.items():
            yield from paths(value, path + (key,))
    elif isinstance(doc, list):
        for i, value in enumerate(doc[:3]):
            yield from paths(value, path + (i,))


def replaced(doc, path, value):
    """A copy of ``doc`` with the value at ``path`` set to ``value``."""
    if not path:
        return value
    out = copy.deepcopy(doc)
    node = out
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return out


def escapes(doc, read, error) -> list[str]:
    """The mutants of ``doc``, as its JSON text reads, on which ``read``
    raises anything but ``error``."""
    doc, found = json.loads(json.dumps(doc)), []
    for path in paths(doc):
        for value in VALUES:
            try:
                read(replaced(doc, path, value))
            except error:
                pass
            except Exception as exc:
                found.append(f"{path} = {value!r}: {type(exc).__name__}: {exc}")
    return found


def read_dfa(doc):
    dfa_to_dot(dfa_from_dict(doc))


def test_model_reader(model):
    doc = model_to_dict(model)
    assert escapes(doc, lambda d: validate(model_from_dict(d)), ModelError) == []


def test_gridworld_config_reader():
    doc = config_to_dict(GridworldConfig())
    assert escapes(doc, lambda d: config_from_dict(d).check(), ModelError) == []


@pytest.mark.parametrize("kind", ["labels", "observations"])
def test_dfa_reader(secret_dfa, opaque_dfa, kind):
    dfa = secret_dfa if kind == "labels" else opaque_dfa
    assert escapes(dfa_to_dict(dfa, kind), read_dfa, AutomatonError) == []


def test_policy_reader(pm):
    policy = extract_policy(solve_lp(build_lp(pm, 0.4, "opacity")), pm)
    doc = policy_to_dict(policy, pm, {"epsilon": 0.4})
    assert escapes(doc, lambda d: policy_from_dict(d, pm), PlannerError) == []
