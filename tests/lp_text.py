"""Minimal reader for the CPLEX LP text this package emits, used to
cross-solve exported files through an independent path (file -> matrices
-> fresh solver run).

The files carry no ``Bounds`` section, so every variable takes the CPLEX
default 0 <= x < infinity."""

import re

import numpy as np
import scipy.sparse as sp
from scipy.optimize import linprog

_TERM = re.compile(r"([+-])\s*([0-9.eE+-]+)\s+([A-Za-z_][A-Za-z0-9_]*)")


def _parse_terms(text):
    out = []
    normalized = text.strip()
    if normalized and normalized[0] not in "+-":
        normalized = "+ " + normalized
    for sign, coef, name in _TERM.findall(normalized):
        value = float(coef)
        out.append((name, -value if sign == "-" else value))
    return out


def parse_lp_text(text):
    lines = [l for l in text.splitlines() if l.strip() and not l.lstrip().startswith("\\")]
    sense = None
    sections = {"objective": [], "constraints": []}
    current = None
    for line in lines:
        stripped = line.strip()
        if stripped in ("Maximize", "Minimize"):
            sense = stripped
            current = "objective"
            continue
        if stripped == "Subject To":
            current = "constraints"
            continue
        if stripped == "Bounds":
            raise ValueError("explicit bounds are not supported")
        if stripped == "End":
            break
        sections[current].append(line)

    # labelled blocks may wrap; continuation lines are indented deeper
    def blocks(rows):
        out = []
        for line in rows:
            if re.match(r" \S+:", line):
                out.append(line)
            else:
                out[-1] += " " + line.strip()
        return out

    obj_text = " ".join(l.strip() for l in sections["objective"])
    obj_text = obj_text.split(":", 1)[1]
    objective = dict(_parse_terms(obj_text))

    constraints = []
    for block in blocks(sections["constraints"]):
        name, body = block.split(":", 1)
        m = re.search(r"(<=|>=|=)\s*([0-9.eE+-]+)\s*$", body)
        op, rhs = m.group(1), float(m.group(2))
        constraints.append((name.strip(), _parse_terms(body[: m.start()]), op, rhs))

    seen = set(objective)
    for _name, terms, _op, _rhs in constraints:
        seen.update(var for var, _coef in terms)
    names = sorted(seen, key=lambda n: [int(x) for x in re.findall(r"\d+", n)])
    return sense, objective, constraints, names


def solve_lp_text(text):
    """Objective value of the file's problem, solved from scratch."""
    sense, objective, constraints, names = parse_lp_text(text)
    index = {n: j for j, n in enumerate(names)}
    n = len(names)
    c = np.zeros(n)
    for name, coef in objective.items():
        c[index[name]] = coef
    rows_eq, rhs_eq, rows_ub, rhs_ub = [], [], [], []
    for _name, terms, op, rhs in constraints:
        row = np.zeros(n)
        for var, coef in terms:
            row[index[var]] += coef
        if op == "=":
            rows_eq.append(row)
            rhs_eq.append(rhs)
        elif op == "<=":
            rows_ub.append(row)
            rhs_ub.append(rhs)
        else:
            rows_ub.append(-row)
            rhs_ub.append(-rhs)
    res = linprog(
        c=-c if sense == "Maximize" else c,
        A_ub=sp.csr_matrix(np.array(rows_ub)) if rows_ub else None,
        b_ub=np.array(rhs_ub) if rows_ub else None,
        A_eq=sp.csr_matrix(np.array(rows_eq)) if rows_eq else None,
        b_eq=np.array(rhs_eq) if rows_eq else None,
        bounds=(0.0, None),
        method="highs",
    )
    assert res.status == 0, res.message
    return -res.fun if sense == "Maximize" else res.fun
