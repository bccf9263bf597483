"""Built-in experiment models: the 7-state running example and a
configurable gridworld with sensors, a patrolling drone, alarms and walls.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path
from typing import Mapping

from .model import Model, ModelError, build_model, record_fields


def running_example() -> Model:
    """Seven-state example with a five-class observation partition.

    Labels are the state names themselves; the run starts surely in s1.
    """
    transitions = {
        ("s1", "a"): {"s2": 0.5, "s3": 0.5},
        ("s1", "b"): {"s2": 0.5, "s3": 0.5},
        ("s2", "a"): {"s2": 0.2, "s3": 0.8},
        ("s2", "b"): {"s4": 0.4, "s5": 0.6},
        ("s3", "a"): {"s3": 0.2, "s5": 0.4, "s7": 0.4},
        ("s3", "b"): {"s4": 0.3, "s5": 0.2, "s6": 0.5},
        ("s4", "a"): {"s4": 1.0},
        ("s4", "b"): {"s4": 1.0},
        ("s5", "a"): {"s5": 0.3, "s4": 0.2, "s7": 0.5},
        ("s5", "b"): {"s5": 1.0},
        ("s6", "a"): {"s6": 0.5, "s5": 0.5},
        ("s6", "b"): {"s6": 1.0},
        ("s7", "a"): {"s6": 0.5, "s7": 0.5},
        ("s7", "b"): {"s6": 0.5, "s7": 0.5},
    }
    partition = [["s1"], ["s2", "s3"], ["s4"], ["s5", "s6"], ["s7"]]
    class_of = {s: tuple(group) for group in partition for s in group}
    observations = {
        (s, a, t): class_of[t]
        for (s, a), dist in transitions.items()
        for t in dist
    }
    states = [f"s{i}" for i in range(1, 8)]
    return build_model(
        states=states,
        actions=["a", "b"],
        transitions=transitions,
        initial={"s1": 1.0},
        labels={s: {s} for s in states},
        observations=observations,
    )


# ---------------------------------------------------------------------------
# gridworld

#: movement deltas in (row, col); laterals are the perpendicular pair
_MOVES = {"N": (-1, 0), "S": (1, 0), "E": (0, 1), "W": (0, -1)}
_LATERAL = {"N": ("E", "W"), "S": ("E", "W"), "E": ("N", "S"), "W": ("N", "S")}

DISABLED = "disabled"


@dataclass(frozen=True)
class Sensor:
    name: str
    cells: tuple[int, ...]


@dataclass(frozen=True)
class DroneConfig:
    """Patrol path (contiguous cells), chance to advance each tick, and a
    camera covering the drone's own cell plus the one north of it."""

    path: tuple[int, ...] = (34, 28, 22, 16)
    move_p: float = 0.65


def _default_binary_sensors() -> tuple[Sensor, ...]:
    return (
        Sensor("1", (0, 6, 7, 12)),
        Sensor("2", (2, 3, 8, 9)),
        Sensor("3", (18, 19, 20, 21)),
        Sensor("4", (4, 5, 10, 16)),
    )


def _default_precision_sensors() -> tuple[Sensor, ...]:
    # precise corridor watching the control/data approach in the south
    return (Sensor("5", (24, 25, 26, 28, 29, 30, 31, 32, 33, 34)),)


@dataclass(frozen=True)
class GridworldConfig:
    """Power-plant patrol scenario on a row-major grid (cell 0 top-left).

    The shipped sensor coverage is a plausible default, not a calibrated
    one; swap in your own via JSON for a specific deployment.
    """

    width: int = 6
    height: int = 6
    plant_cell: int = 8
    control_cells: tuple[int, ...] = (34,)
    data_cells: tuple[int, ...] = (16, 25)
    alarm_cells: tuple[int, ...] = (1, 11, 13, 15, 27, 35)
    wall_cells: tuple[int, ...] = (17, 23)
    move_success_p: float = 0.6
    init_cell: int = 30
    binary_sensors: tuple[Sensor, ...] = field(default_factory=_default_binary_sensors)
    precision_sensors: tuple[Sensor, ...] = field(default_factory=_default_precision_sensors)
    drone: DroneConfig = field(default_factory=DroneConfig)

    # -- geometry helpers ------------------------------------------------
    def in_grid(self, cell: int) -> bool:
        return 0 <= cell < self.width * self.height

    def row_col(self, cell: int) -> tuple[int, int]:
        return divmod(cell, self.width)

    def neighbor(self, cell: int, direction: str) -> int | None:
        dr, dc = _MOVES[direction]
        r, c = self.row_col(cell)
        r2, c2 = r + dr, c + dc
        if not (0 <= r2 < self.height and 0 <= c2 < self.width):
            return None
        return r2 * self.width + c2

    def north_of(self, cell: int) -> int | None:
        return self.neighbor(cell, "N")

    def check(self) -> None:
        if self.width < 1 or self.height < 1:
            raise ModelError(f"grid size {self.width}x{self.height} must be at least 1x1")
        cells = (
            (self.plant_cell,)
            + self.control_cells
            + self.data_cells
            + self.alarm_cells
            + self.wall_cells
            + (self.init_cell,)
            + self.drone.path
        )
        for c in cells:
            if not self.in_grid(c):
                raise ModelError(f"cell {c} outside the {self.width}x{self.height} grid")
        for sensor in self.binary_sensors + self.precision_sensors:
            for c in sensor.cells:
                if not self.in_grid(c):
                    raise ModelError(f"sensor {sensor.name} covers out-of-grid cell {c}")
        if not (0.0 < self.move_success_p <= 1.0):
            raise ModelError("move_success_p must be in (0, 1]")
        if not (0.0 < self.drone.move_p <= 1.0):
            raise ModelError("drone move_p must be in (0, 1]")
        if not self.drone.path:
            raise ModelError("drone path must be nonempty")
        if len(set(self.drone.path)) != len(self.drone.path):
            raise ModelError("drone path cells must be distinct")
        for u, v in zip(self.drone.path, self.drone.path[1:]):
            if v not in (self.neighbor(u, d) for d in _MOVES):
                raise ModelError(f"drone path cells {u} and {v} are not adjacent")
        if self.init_cell in self.wall_cells or self.init_cell in self.alarm_cells:
            raise ModelError("initial cell may not be a wall or alarm cell")


def config_to_dict(cfg: GridworldConfig) -> dict:
    return asdict(cfg)


def config_from_dict(doc: Mapping) -> GridworldConfig:
    """The config of a :func:`config_to_dict` document; raises ``ModelError``
    on an unknown field, a field of the wrong type, or a sensor or drone
    without its fields."""
    if not isinstance(doc, Mapping):
        raise ModelError("gridworld config must hold a JSON object")
    unknown = sorted(set(doc) - {f.name for f in fields(GridworldConfig)})
    if unknown:
        raise ModelError(f"gridworld config has the unknown field {unknown[0]!r}")
    doc = dict(doc)
    for key in ("width", "height", "plant_cell", "init_cell"):
        if key in doc and not _is_int(doc[key]):
            raise ModelError(f"gridworld config: {key} must be an integer")
    if "move_success_p" in doc:
        doc["move_success_p"] = _number(doc["move_success_p"], "move_success_p")
    for key in ("binary_sensors", "precision_sensors"):
        if key in doc:
            if not isinstance(doc[key], (list, tuple)):
                raise ModelError(f"gridworld config: {key} must be a list of sensors")
            where = f"gridworld config: a sensor in {key}"
            sensors = [record_fields(s, ("name", "cells"), where) for s in doc[key]]
            doc[key] = tuple(
                Sensor(str(name), _cells(cells, f"the cells of sensor {name}"))
                for name, cells in sensors
            )
    if "drone" in doc:
        path, move_p = record_fields(doc["drone"], ("path", "move_p"), "gridworld config: drone")
        doc["drone"] = DroneConfig(
            path=_cells(path, "the drone's path"), move_p=_number(move_p, "the drone's move_p")
        )
    for key in ("control_cells", "data_cells", "alarm_cells", "wall_cells"):
        if key in doc:
            doc[key] = _cells(doc[key], key)
    return GridworldConfig(**doc)


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _cells(value, where: str) -> tuple[int, ...]:
    """``value`` as a tuple if it is a list (or tuple) of integers; raises
    ``ModelError`` naming ``where`` otherwise."""
    if not isinstance(value, (list, tuple)) or not all(_is_int(c) for c in value):
        raise ModelError(f"gridworld config: {where} must be a list of cells")
    return tuple(value)


def _number(value, where: str) -> float:
    """``value`` as a float if it is a JSON number; raises ``ModelError``
    naming ``where`` otherwise."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ModelError(f"gridworld config: {where} must be a number")
    return float(value)


def load_config(path: str | Path) -> GridworldConfig:
    return config_from_dict(json.loads(Path(path).read_text()))


def save_config(cfg: GridworldConfig, path: str | Path) -> None:
    Path(path).write_text(json.dumps(config_to_dict(cfg), indent=2, sort_keys=True) + "\n")


def _robot_move(cfg: GridworldConfig, cell: int, action: str) -> dict[int, float]:
    """Intended cell with probability p, the two lateral neighbors with
    (1-p)/2 each; any blocked target (boundary or wall) turns into stay."""
    p = cfg.move_success_p
    side = (1.0 - p) / 2.0
    outcome: dict[int, float] = {}

    def deposit(direction: str, mass: float) -> None:
        if mass <= 0.0:
            return
        target = cfg.neighbor(cell, direction)
        if target is None or target in cfg.wall_cells:
            target = cell
        outcome[target] = outcome.get(target, 0.0) + mass

    deposit(action, p)
    for lateral in _LATERAL[action]:
        deposit(lateral, side)
    return outcome


def _drone_step(cfg: GridworldConfig, idx: int, direction: int) -> dict[tuple[int, int], float]:
    """Advance along the path with probability move_p, else hover; the
    direction flips at the endpoints so the next tick heads back."""
    last = len(cfg.drone.path) - 1
    if last == 0:
        return {(0, 1): 1.0}
    outcome: dict[tuple[int, int], float] = {}
    for new_idx, mass in ((idx + direction, cfg.drone.move_p), (idx, 1.0 - cfg.drone.move_p)):
        if mass <= 0.0:
            continue
        new_dir = direction
        if new_idx <= 0:
            new_dir = 1
        elif new_idx >= last:
            new_dir = -1
        key = (new_idx, new_dir)
        outcome[key] = outcome.get(key, 0.0) + mass
    return outcome


def _signature(cfg: GridworldConfig, cell: int, drone_cell: int):
    bits = tuple(cell in s.cells for s in cfg.binary_sensors)
    precise = tuple(cell if cell in s.cells else None for s in cfg.precision_sensors)
    camera_cells = {drone_cell, cfg.north_of(drone_cell)}
    camera = cell if cell in camera_cells else None
    return (bits, precise, camera)


def gridworld(cfg: GridworldConfig | None = None) -> Model:
    """Build the patrol model: state = (robot cell, drone position).

    Entering an alarmed cell moves to an absorbing disabled state where
    only termination remains.  Observation classes group states whose
    joint sensor output (binary bits, precision reads, drone camera) is
    identical.
    """
    cfg = cfg or GridworldConfig()
    cfg.check()
    drone0 = (0, 1)

    def name(cell: int, drone: tuple[int, int]) -> str:
        idx, direction = drone
        return f"c{cell}_d{cfg.drone.path[idx]}{'+' if direction > 0 else '-'}"

    # reachable (cell, drone) pairs by forward search
    start = (cfg.init_cell, drone0)
    seen = {start}
    frontier = [start]
    transitions: dict[tuple[str, str], dict[str, float]] = {}
    reached_disabled = False
    while frontier:
        cell, drone = frontier.pop(0)
        src = name(cell, drone)
        drone_dist = _drone_step(cfg, *drone)
        for action in _MOVES:
            dist: dict[str, float] = {}
            for target_cell, pr in _robot_move(cfg, cell, action).items():
                for new_drone, pd in drone_dist.items():
                    if target_cell in cfg.alarm_cells:
                        key = DISABLED
                        reached_disabled = True
                    else:
                        key = name(target_cell, new_drone)
                        pair = (target_cell, new_drone)
                        if pair not in seen:
                            seen.add(pair)
                            frontier.append(pair)
                    dist[key] = dist.get(key, 0.0) + pr * pd
            transitions[(src, action)] = dist

    pairs = sorted(seen, key=lambda p: (p[0], p[1]))
    states = [name(*p) for p in pairs]
    if reached_disabled:
        states.append(DISABLED)

    def labels_of(cell: int) -> set[str]:
        out = set()
        if cell == cfg.plant_cell:
            out.add("C")
        if cell in cfg.control_cells:
            out.add("A")
        if cell in cfg.data_cells:
            out.add("B")
        return out

    labels = {name(*p): labels_of(p[0]) for p in pairs}
    if reached_disabled:
        labels[DISABLED] = set()

    # observation classes partition the state space per joint sensor output
    by_signature: dict[object, list[str]] = {}
    for cell, drone in pairs:
        sig = _signature(cfg, cell, cfg.drone.path[drone[0]])
        by_signature.setdefault(sig, []).append(name(cell, drone))
    if reached_disabled:
        by_signature[DISABLED] = [DISABLED]
    class_of = {
        s: tuple(sorted(group)) for group in by_signature.values() for s in group
    }
    observations = {
        (s, a, t): class_of[t]
        for (s, a), dist in transitions.items()
        for t in dist
    }

    return build_model(
        states=states,
        actions=sorted(_MOVES),
        transitions=transitions,
        initial={name(cfg.init_cell, drone0): 1.0},
        labels=labels,
        observations=observations,
        atomic_props={"A", "B", "C"},
    )
