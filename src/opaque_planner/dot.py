"""Graphviz dot renderings of the pipeline's automata and transducers,
read from their move arrays: the model's entries, which are the
observation transducer, the product transducer's entries, an NFA's
``src``/``letter``/``dst`` and a DFA's ``table``."""

from __future__ import annotations

import numpy as np

from .automata import Dfa, Nfa, letter_rank, letter_str
from .model import Model, _distinct
from .transducer import ProductFst


def _quote(name: str) -> str:
    return '"' + name.replace('"', r"\"") + '"'


def _header(lines: list[str]) -> None:
    lines.append("  rankdir=LR;")
    lines.append("  node [shape=circle];")
    lines.append("  __init [shape=point];")


def dfa_to_dot(dfa: Dfa) -> str:
    q, i = np.nonzero(dfa.table >= 0)
    return _automaton_to_dot(
        "dfa", dfa.alphabet, dfa.state_names, dfa.accepting, (dfa.initial,), q, i, dfa.table[q, i]
    )


def nfa_to_dot(nfa: Nfa) -> str:
    return _automaton_to_dot(
        "nfa", nfa.alphabet, nfa.state_names, nfa.accepting, nfa.initials,
        nfa.src, nfa.letter, nfa.dst,
    )


def _automaton_to_dot(kind: str, alphabet, names, accepting, initials, src, letter, dst) -> str:
    """One edge per distinct move ``src -> dst`` on the letter id
    ``letter``, by source, then the letter's text, then target."""
    lines = [f"digraph {kind} {{"]
    _header(lines)
    for q in sorted(accepting):
        lines.append(f"  {_quote(names[q])} [shape=doublecircle];")
    for q in sorted(initials):
        lines.append(f"  __init -> {_quote(names[q])};")
    rank = letter_rank(alphabet, str)
    width, n = max(len(alphabet), 1), max(len(names), 1)
    cell, target = np.divmod(_distinct((src * width + rank[letter]) * n + dst), n)
    source, by_text = np.divmod(cell, width)
    letter_of = np.argsort(rank)  # the letter id at each place
    for q, i, t in zip(source.tolist(), letter_of[by_text].tolist(), target.tolist()):
        label = _quote(letter_str(alphabet[i]))
        lines.append(f"  {_quote(names[q])} -> {_quote(names[t])} [label={label}];")
    lines.append("}")
    return "\n".join(lines) + "\n"


def _transducer_edges(lines: list[str], model: Model, src, entry, dst, name) -> None:
    """One edge per move ``src -> dst`` that reads the model entry
    ``entry``, labelled input/output, by source, then input; ``name``
    names a transducer state.  ``Model.obs`` raises ``ModelError`` on an
    entry with no observation."""
    s, a, t = (x[entry] for x in (model.entry_state, model.entry_action, model.entry_succ))
    order = np.lexsort((t, a, s, src))
    states, actions = model.states, model.actions
    for v, si, ai, ti, w in zip(*(x[order].tolist() for x in (src, s, a, t, dst))):
        label = f"({states[si]},{actions[ai]},{states[ti]})/{model.obs(si, ai, ti)}"
        lines.append(f"  {_quote(name(v))} -> {_quote(name(w))} [label={_quote(label)}];")
    lines.append("}")


def fst_to_dot(model: Model) -> str:
    """The observation transducer: the model's entries; edge labels read
    input/output."""
    lines = ["digraph fst {"]
    _header(lines)
    lines.append(f"  __init -> {_quote(model.states[model.top])};")
    e = np.arange(len(model.entry_succ))
    _transducer_edges(lines, model, model.entry_state, e, model.entry_succ, model.states.__getitem__)
    return "\n".join(lines) + "\n"


def product_fst_to_dot(pf: ProductFst) -> str:
    lines = ["digraph product_fst {"]
    _header(lines)
    for idx in sorted(pf.accept_sat):
        lines.append(f"  {_quote(pf.state_name(idx))} [shape=doublecircle];")
    for idx in sorted(pf.accept_vio):
        lines.append(
            f"  {_quote(pf.state_name(idx))} [shape=doublecircle, style=dashed];"
        )
    lines.append(f"  __init -> {_quote(pf.state_name(pf.initial))};")
    _transducer_edges(lines, pf.model, pf.entry_state, pf.entry_model, pf.entry_succ, pf.state_name)
    return "\n".join(lines) + "\n"
