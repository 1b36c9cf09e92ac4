"""The JSON form shared by the config dataclasses."""

from __future__ import annotations

import pytest

from intentclf import MiningConfig, OFCConfig, ProviderConfig, TrainConfig, ValidationError

_CLASSES = [TrainConfig, MiningConfig, OFCConfig, ProviderConfig]


@pytest.mark.parametrize(
    "config",
    [
        TrainConfig(
            loss_kind="oc",
            mining=MiningConfig(p=25.0, mode="standard"),
            ofc=OFCConfig(alpha=2.0, gamma=1.0),
            grad_clip_norm=None,
        ),
        MiningConfig(p=37.5, mode="standard", positive_rule="overlap"),
        OFCConfig(alpha=0.5, gamma=0.0, margin=1.5, epsilon=1e-9),
        ProviderConfig(kind="http", dim=64, endpoint="http://127.0.0.1:9/embed", seed=9, timeout=2.5),
    ],
    ids=lambda config: type(config).__name__,
)
def test_json_round_trip(config):
    assert type(config).from_json(config.to_json()) == config


@pytest.mark.parametrize("cls", _CLASSES, ids=lambda cls: cls.__name__)
def test_missing_keys_take_dataclass_defaults(cls):
    assert cls.from_json({}) == cls()
    assert cls.from_json({"unknown_key": 1}) == cls()


def test_values_coerced_by_field_type():
    config = TrainConfig.from_json(
        {"lr_pretrain": "0.1", "batch_size": 16.0, "grad_clip_norm": None, "mining": {"p": 5}}
    )
    assert config == TrainConfig(lr_pretrain=0.1, batch_size=16, grad_clip_norm=None, mining=MiningConfig(p=5.0))
    assert type(config.batch_size) is int
    assert config.to_json()["mining"]["p"] == 5.0 and type(config.to_json()["mining"]["p"]) is float


@pytest.mark.parametrize(
    "obj",
    [
        {"lr_pretrain": "abc"},
        {"batch_size": None},
        {"epochs_pretrain": float("inf")},
        {"mining": {"p": [1]}},
        {"mining": 3},
        {"ofc": {"epsilon": "tiny"}},
        [],
    ],
)
def test_uncoercible_values_raise_validation_error(obj):
    with pytest.raises(ValidationError):
        TrainConfig.from_json(obj)
