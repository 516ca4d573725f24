import json
import math
import sys

import pytest

from beliefsim.config import (
    DECAY_MODULATORS,
    LOAD_SCALE_MAX,
    ParameterConfig,
    config_from_dict,
    default_config,
    is_finite_number,
)
from beliefsim.simulator import run_scenario
from beliefsim.trace import record_dict


def test_defaults_are_valid():
    default_config().validate()


def test_decay_rate_inverse_anchor():
    cfg = default_config()
    assert cfg.decay_rate(0.0) == pytest.approx(0.02)
    assert cfg.decay_rate(10.0) == pytest.approx(0.02 / 11.0)


def test_decay_rate_flat_modulator():
    cfg = default_config().replace(decay_modulator="constant")
    assert cfg.decay_rate(10.0) == pytest.approx(0.02)


@pytest.mark.parametrize(
    "field,value",
    [
        ("delta", 0.0),
        ("delta", 1.0),
        ("lambda0", 0.0),
        ("lambda0", -0.1),
        ("embed_dim", 0),
        ("embed_dim", 64.5),
        ("embed_dim", 4097),
        ("tau_retrieval", -0.1),
        ("tau_retrieval", 1.5),
        ("window", 0),
        ("effort_total", 0.0),
        ("patience", 0),
        ("meta_depth_max", 0),
        ("decay_modulator", "bogus"),
        ("window", 2.5),
        ("patience", True),
        ("goal_marker", 5),
        ("goal_marker", ""),
        ("seed", 1.5),
        ("l_max", float("inf")),
        ("lambda0", float("nan")),
        ("delta", 10**400),
        ("window", sys.maxsize + 1),
        ("load_coeffs", (0.1, "x", 0.1)),
        ("sector_priority", ("task", 3)),
        ("sector_costs", {"perc": "x"}),
        ("reanchor_min", 1e101),
        ("load_coeffs", (1e101, 0, 0)),
        ("sector_costs", {"perc": 1e101}),
    ],
)
def test_validate_rejects_out_of_range(field, value):
    with pytest.raises(ValueError):
        default_config().replace(**{field: value})


@pytest.mark.parametrize("field", ["embed_dim", "window", "patience", "meta_depth_max", "seed"])
def test_an_integer_field_beyond_the_float_range_is_refused_in_one_short_line(field):
    """The header echoes every field into the trace, whose reader refuses an
    integer a float cannot hold; the error shows the value shortened."""
    with pytest.raises(ValueError, match=f"^{field} must be an integer within the float "
                       r"range, got 9{18}\.\.\.9{19}$"):
        config_from_dict({field: int("9" * 388)})
    assert config_from_dict({"seed": int(sys.float_info.max)}).seed == int(sys.float_info.max)


def test_loads_at_the_coefficient_and_cost_bound_stay_finite(tmp_path):
    """Every load coefficient and sector cost at the bound, one row in two
    sectors: the run writes its trace, and every load in it is finite."""
    top = LOAD_SCALE_MAX
    path = tmp_path / "bound.json"
    path.write_text(json.dumps({
        "config": {"load_coeffs": [top, top, top], "sector_costs": {"perc": top, "task": top}},
        "timeline": [
            {"event": "observe", "specs": [{"text": "pump hums", "sectors": ["perc", "task"]}]},
            {"event": "tick", "n": 2},
        ],
    }))
    loads = [e.payload["report"]["load"] for e in run_scenario(path).trace.events
             if e.kind == "meta"]
    assert loads and all(math.isfinite(load) and load > top for load in loads)


def test_replace_returns_new_validated_config():
    cfg = default_config()
    other = cfg.replace(lambda0=0.05)
    assert other.lambda0 == 0.05
    assert cfg.lambda0 == 0.02  # original untouched


def test_cost_defaults_to_one():
    cfg = default_config().replace(sector_costs={"plan": 2.5})
    assert cfg.cost("plan") == 2.5
    assert cfg.cost("perc") == 1.0


def test_dict_roundtrip():
    cfg = default_config().replace(lambda0=0.03, sector_costs={"task": 2.0})
    again = config_from_dict(record_dict(cfg))
    assert again == cfg


def test_from_dict_rejects_unknown_keys():
    with pytest.raises(ValueError, match="unknown"):
        config_from_dict({"lambda_zero": 0.02})


def test_from_dict_coerces_sequences():
    cfg = config_from_dict({"load_coeffs": [0.02, 2.0, 0.2], "sector_priority": ["a", "b"]})
    assert cfg.load_coeffs == (0.02, 2.0, 0.2)
    assert cfg.sector_priority == ("a", "b")


@pytest.mark.parametrize(
    "data",
    [5, {"sector_costs": {"perc": 10**400}}, {"load_coeffs": 5}, {"sector_costs": [1]}],
)
def test_from_dict_rejects_malformed_values(data):
    with pytest.raises(ValueError):
        config_from_dict(data)


def test_modulator_registry_contains_default():
    assert ParameterConfig().decay_modulator in DECAY_MODULATORS


LARGEST = int(sys.float_info.max)


@pytest.mark.parametrize(
    "value, finite",
    [
        (0, True), (-2.5, True), (LARGEST, True), (-LARGEST, True),
        (True, False), (False, False), (float("nan"), False), (float("inf"), False),
        (float("-inf"), False), (10**400, False), (LARGEST + 1, False),
        (-LARGEST - 1, False), ("1", False), (None, False),
    ],
)
def test_is_finite_number(value, finite):
    assert is_finite_number(value) is finite
