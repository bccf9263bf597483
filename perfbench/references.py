"""Reference values the benchmark checks the program's outputs against.

Each value comes from outside the code path it checks: the paper's tables,
optima confirmed by an independent exact evaluation, or language invariants
of the opaque-observations DFA (its minimal size and how many words of each
length it accepts), which any correct construction must reproduce.  The
invariants were recorded once from the seed implementation.
"""

# Table I (opacity) and Table II (transparency) optima of the running
# example with secret F s6 and task F s4, keyed by the task threshold.
TABLE_I = {0.4: 0.7, 0.6: 0.6, 0.8: 0.4}
TABLE_I_TOL = 1e-6
TABLE_II = {0.4: 0.9828, 0.6: 0.9742, 0.8: 0.9658}
TABLE_II_TOL = 1e-3

# Opacity optima of the default 6x6 gridworld, secret F B & F A, task F C.
GRIDWORLD_OPTIMA = {0.4: 0.462878656863, 0.6: 0.430027314226, 0.8: 0.259294762152}
# Opacity optima of the 4x3 self-test gridworld (``TINY_GRIDWORLD``).
TINY_GRIDWORLD_OPTIMA = {0.4: 0.6, 0.6: 0.4, 0.8: 0.2}
GRIDWORLD_TOL = 1e-6

FLOW_RESIDUAL_MAX = 1e-8
# sampled PH, PT and task probability against exact_policy_values
SAMPLE_TOL = 0.025
# LP objective and task probability against exact_policy_values
EXACT_TOL = 1e-6
# depth of the brute-force observation buckets on the running example
BUCKET_DEPTH = 4

# The 4x3 gridworld used at the self-test size, as GridworldConfig fields.
TINY_GRIDWORLD = {
    "width": 4,
    "height": 3,
    "plant_cell": 3,
    "control_cells": (11,),
    "data_cells": (4,),
    "alarm_cells": (1,),
    "wall_cells": (6,),
    "init_cell": 8,
    "binary_sensors": (("1", (0, 4, 5)), ("2", (2, 3, 7))),
    "precision_sensors": (("5", (4, 8, 9)),),
    "drone": ((10, 11, 7), 0.65),
}

# Opaque-observations DFA per secret: minimal complete size, then the number
# of accepted words of each length 0, 1, ..., len - 1 over its alphabet
# (observation symbols plus the start and end markers).
RUNNING_EXAMPLE_DFA = {
    "F s6": (9, (0, 0, 0, 0, 1, 2, 5, 10, 17, 26, 37)),
}
_F_B_AND_F_A = (
    515,
    (0,) * 15
    + (8, 68, 560, 3457, 20103, 105199, 526535, 2501223, 11524637, 51535620),
)
GRIDWORLD_DFA = {
    "F B & F A": _F_B_AND_F_A,
    "F (B & F A)": (549, (0,) * 20 + (24, 284, 2665, 19397, 126930)),
    "G (!B | F A)": (
        415,
        (0,) * 11
        + (3, 13, 80, 320, 1394, 5227, 20032, 72309, 263602, 941799,
           3407272, 12345117, 45530579, 170118051),
    ),
    # the same opaque language as F B & F A on this model
    "F B | G !A": _F_B_AND_F_A,
    "F A & G !C": (
        897,
        (0,) * 12
        + (13, 137, 1230, 8610, 55377, 324424, 1811205, 9661924, 50120920,
           253754522, 1263799174, 6208213165, 30193023872),
    ),
    "(!A) U B": (
        411,
        (0,) * 11
        + (3, 13, 80, 320, 1386, 5159, 19440, 68552, 240681, 817550,
           2757169, 9135743, 30091246, 98194877),
    ),
}
TINY_GRIDWORLD_DFA = {
    "F B & F A": (
        51,
        (0,) * 7
        + (4, 26, 140, 662, 2958, 12672, 52668, 213720, 850786, 3333838,
           12892616, 49303466, 186742618, 701447960, 2615707876, 9691756512,
           35706862206, 130889411066),
    ),
}
