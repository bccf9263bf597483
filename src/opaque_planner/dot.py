"""Graphviz dot renderings of the pipeline's automata and transducers."""

from __future__ import annotations

from .automata import Dfa, Nfa, letter_str
from .transducer import Fst, ProductFst


def _quote(name: str) -> str:
    return '"' + name.replace('"', r"\"") + '"'


def _header(lines: list[str]) -> None:
    lines.append("  rankdir=LR;")
    lines.append("  node [shape=circle];")
    lines.append("  __init [shape=point];")


def dfa_to_dot(dfa: Dfa) -> str:
    moves = ((key, (t,)) for key, t in dfa.transitions.items())
    return _automaton_to_dot("dfa", dfa.state_names, dfa.accepting, (dfa.initial,), moves)


def nfa_to_dot(nfa: Nfa) -> str:
    moves = nfa.transitions.items()
    return _automaton_to_dot("nfa", nfa.state_names, nfa.accepting, nfa.initials, moves)


def _automaton_to_dot(kind: str, names, accepting, initials, moves) -> str:
    """One edge per target of each ((state, letter), targets) in ``moves``."""
    lines = [f"digraph {kind} {{"]
    _header(lines)
    for q in sorted(accepting):
        lines.append(f"  {_quote(names[q])} [shape=doublecircle];")
    for q in sorted(initials):
        lines.append(f"  __init -> {_quote(names[q])};")
    for (q, letter), targets in sorted(moves, key=lambda kv: (kv[0][0], str(kv[0][1]))):
        for t in sorted(targets):
            label = _quote(letter_str(letter))
            lines.append(f"  {_quote(names[q])} -> {_quote(names[t])} [label={label}];")
    lines.append("}")
    return "\n".join(lines) + "\n"


def _transducer_edges(lines: list[str], transitions, model, name) -> None:
    """One edge per transition, labelled input/output; ``name`` names a
    transducer state."""
    for (src, (s, a, t)), (dst, out) in sorted(transitions.items()):
        label = f"({model.states[s]},{model.actions[a]},{model.states[t]})/{out}"
        lines.append(f"  {_quote(name(src))} -> {_quote(name(dst))} [label={_quote(label)}];")
    lines.append("}")


def fst_to_dot(fst: Fst) -> str:
    """Transducer rendering; edge labels read input/output."""
    model = fst.model
    lines = ["digraph fst {"]
    _header(lines)
    lines.append(f"  __init -> {_quote(model.states[model.top])};")
    _transducer_edges(lines, fst.transitions, model, model.states.__getitem__)
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
    _transducer_edges(lines, pf.transitions, pf.model, pf.state_name)
    return "\n".join(lines) + "\n"
