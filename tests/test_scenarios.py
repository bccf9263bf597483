from pathlib import Path

import pytest

from opaque_planner.model import ObsSymbol, Play, validate
from opaque_planner.scenarios import (
    DISABLED,
    DroneConfig,
    GridworldConfig,
    Sensor,
    config_from_dict,
    config_to_dict,
    gridworld,
    load_config,
)

from helpers import label_of_play

SS = ObsSymbol.state_set
DATA = Path(__file__).resolve().parent / "data"


class TestRunningExample:
    def test_validates_clean(self, model):
        assert validate(model) == []

    def test_states_and_actions(self, model):
        assert model.states == ("s_top", "s1", "s2", "s3", "s4", "s5", "s6", "s7", "s_bot")
        assert model.actions == ("a_top", "a", "b", "a_bot")

    @pytest.mark.parametrize(
        "s,a,t,p",
        [
            ("s2", "a", "s2", 0.2),
            ("s2", "a", "s3", 0.8),
            ("s3", "b", "s4", 0.3),
            ("s3", "a", "s5", 0.4),
            ("s3", "a", "s7", 0.4),
            ("s3", "a", "s3", 0.2),
            ("s5", "a", "s7", 0.5),
            ("s7", "a", "s6", 0.5),
            ("s6", "b", "s6", 1.0),
        ],
    )
    def test_transition_probabilities(self, model, s, a, t, p):
        si, ai, ti = model.state_index[s], model.action_index[a], model.state_index[t]
        assert model.prob(si, ai, ti) == pytest.approx(p)

    def test_initial_distribution(self, model):
        assert model.initial_dist() == ((model.state_index["s1"], 1.0),)

    def test_observation_partition(self, model):
        s1, a = model.state_index["s1"], model.action_index["a"]
        s2, s3 = model.state_index["s2"], model.state_index["s3"]
        assert model.obs(s1, a, s2) == model.obs(s1, a, s3) == SS(["s2", "s3"])

    def test_partition_classes(self, model):
        classes = {sym.members for sym in model.observations.values()}
        assert classes == {("s2", "s3"), ("s4",), ("s5", "s6"), ("s7",)}

    def test_state_name_labels(self, model):
        for i in model.interior_state_indices():
            assert model.labels[i] == frozenset({model.states[i]})


class TestGridworldConfig:
    def test_defaults_are_valid(self):
        GridworldConfig().check()

    def test_json_round_trip(self):
        cfg = GridworldConfig(move_success_p=0.7)
        back = config_from_dict(config_to_dict(cfg))
        assert back == cfg

    def test_out_of_grid_cell(self):
        with pytest.raises(ValueError, match="outside"):
            GridworldConfig(plant_cell=99).check()

    def test_discontiguous_drone_path(self):
        with pytest.raises(ValueError, match="adjacent"):
            GridworldConfig(drone=DroneConfig(path=(34, 16))).check()

    def test_bad_probability(self):
        with pytest.raises(ValueError, match="move_success_p"):
            GridworldConfig(move_success_p=0.0).check()

    def test_init_on_alarm(self):
        with pytest.raises(ValueError, match="initial cell"):
            GridworldConfig(init_cell=1).check()

    def test_shipped_8x8_config(self):
        # a proportional re-lay of the default 6x6 on an 8x8 grid
        m = gridworld(load_config(DATA / "gridworld_8x8.json"))
        assert validate(m) == []
        assert m.n_states == 451
        assert len(m.observation_alphabet()) == 27


@pytest.fixture(scope="module")
def grid():
    return gridworld()


class TestGridworldModel:
    def test_validates_clean(self, grid):
        assert validate(grid) == []

    def helper_dist(self, grid, cell_state, action):
        s = grid.state_index[cell_state]
        a = grid.action_index[action]
        out = {}
        for t, p in grid.successors(s, a):
            out[grid.states[t]] = out.get(grid.states[t], 0.0) + p
        return out

    def robot_marginal(self, grid, cell_state, action):
        """Collapse the drone component out of a successor distribution."""
        merged = {}
        for name, p in self.helper_dist(grid, cell_state, action).items():
            cell = name.split("_")[0] if name != DISABLED else name
            merged[cell] = merged.get(cell, 0.0) + p
        return merged

    def test_north_from_cell_30(self, grid):
        marginal = self.robot_marginal(grid, "c30_d34+", "N")
        assert marginal["c24"] == pytest.approx(0.6)
        assert marginal["c31"] == pytest.approx(0.2)
        assert marginal["c30"] == pytest.approx(0.2)

    def test_west_from_cell_30_bounces(self, grid):
        marginal = self.robot_marginal(grid, "c30_d34+", "W")
        assert marginal["c30"] == pytest.approx(0.8)  # boundary + blocked lateral
        assert marginal["c24"] == pytest.approx(0.2)

    def test_wall_bounce(self, grid):
        # east of 16 is the bouncy wall 17
        name = next(s for s in grid.states if s.startswith("c16_"))
        marginal = self.robot_marginal(grid, name, "E")
        assert marginal["c16"] == pytest.approx(0.6)
        assert marginal["c10"] == pytest.approx(0.2)
        assert marginal["c22"] == pytest.approx(0.2)

    def test_alarm_disables(self, grid):
        # west of cell 2 lies alarm cell 1
        name = next(s for s in grid.states if s.startswith("c2_"))
        marginal = self.robot_marginal(grid, name, "W")
        assert marginal[DISABLED] == pytest.approx(0.6)
        assert marginal["c2"] == pytest.approx(0.2)  # north lateral is boundary
        assert marginal["c8"] == pytest.approx(0.2)

    def test_drone_advances(self, grid):
        dist = self.helper_dist(grid, "c30_d34+", "N")
        drones = {}
        for name, p in dist.items():
            if name == DISABLED:
                continue
            drone = name.split("_")[1]
            drones[drone] = drones.get(drone, 0.0) + p
        assert drones["d28+"] == pytest.approx(0.65)
        assert drones["d34+"] == pytest.approx(0.35)

    def test_drone_reverses_at_path_end(self, grid):
        top = next(s for s in grid.states if s.endswith("d16-"))
        assert top  # direction flips to backwards at the last path cell

    def test_disabled_state_only_terminates(self, grid):
        d = grid.state_index[DISABLED]
        assert grid.enabled(d) == (grid.a_bot,)

    def test_labels(self, grid):
        def labels_at(prefix):
            out = set()
            for s in grid.interior_state_indices():
                if grid.states[s].startswith(prefix + "_"):
                    out |= grid.labels[s]
            return out

        assert labels_at("c8") == {"C"}
        assert labels_at("c34") == {"A"}
        assert labels_at("c25") == {"B"}
        assert labels_at("c16") == {"B"}

    def test_observation_classes_partition_states(self, grid):
        member_of = {}
        for sym in grid.observations.values():
            for name in sym.members:
                member_of.setdefault(name, set()).add(sym.members)
        for name, groups in member_of.items():
            assert len(groups) == 1

    def test_same_signature_states_share_class(self, grid):
        # cell 14 is covered by nothing, so its class spans drone positions
        sym = None
        for (s, act, t), o in grid.observations.items():
            if grid.states[t].startswith("c14_"):
                sym = o
                break
        assert sym is not None and len(sym.members) > 1
        drone_variants = {m for m in sym.members if m.startswith("c14_")}
        assert len(drone_variants) > 1

    def test_play_visiting_data_then_control(self, grid):
        # a concrete positive-probability route 30 -> 31 -> 25(B) -> 26 ->
        # 32 -> 33 -> 34(A), drone hovering at 34 the whole time
        cells = [30, 31, 25, 26, 32, 33, 34]
        actions = ["E", "N", "E", "S", "E", "E"]
        linear = ["s_top", "a_top"]
        for i, cell in enumerate(cells):
            linear.append(f"c{cell}_d34+")
            if i < len(actions):
                linear.append(actions[i])
        linear += ["a_bot", "s_bot"]
        word = label_of_play(grid, Play.from_linear(linear))
        mids = list(word[1:-1])
        assert mids.index(frozenset({"B"})) < mids.index(frozenset({"A"}))

    def test_custom_config_honored(self):
        cfg = GridworldConfig(
            width=4, height=4,
            plant_cell=5, control_cells=(15,), data_cells=(12,),
            alarm_cells=(3,), wall_cells=(10,),
            init_cell=0,
            binary_sensors=(Sensor("1", (1, 2)),),
            precision_sensors=(Sensor("2", (8, 9)),),
            drone=DroneConfig(path=(15, 11), move_p=0.5),
        )
        m = gridworld(cfg)
        assert validate(m) == []
        assert any(s.startswith("c0_") for s in m.states)
