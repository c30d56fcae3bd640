"""Every config field's rule and type, read from the dataclass fields.

Each field of `ModelConfig`, `TrainingConfig` and `PipelineConfig` is
checked by `corpus.check_fields`: a value just outside a field's `rule`
(and NaN, for a float field) gives the rule's message, a value of the wrong
type gives the type message, and a `Literal` field given anything else
gives `unknown <name>: <value>`.
"""

import dataclasses
import math
import typing

import pytest

from langxfer.pipeline import PipelineConfig
from langxfer.tiny_mlm import ModelConfig
from langxfer.trainer import TrainingConfig

PATHS = {"out_dir": "o", "en_train": "a", "en_heldout": "b", "fg_train": "c",
         "fg_heldout": "d"}
FIELDS = [(cls, f) for cls in (ModelConfig, TrainingConfig, PipelineConfig)
          for f in dataclasses.fields(cls)]

# the values just outside each rule, by the rule and the field's annotation
OUTSIDE = {
    (">= 0", "int"): [-1],
    (">= 1", "int"): [0],
    (">= 2", "int"): [1],
    (">= 0", "float"): [-5e-324],
    ("> 0", "float"): [0.0, -5e-324],
    ("in (0, 1]", "float"): [0.0, math.nextafter(1.0, 2.0)],
    ("in [0, 1)", "float"): [-5e-324, 1.0],
}
# what each annotation's type message says it must be, and the types of
# probe value it accepts
TYPES = {
    "int": ("an int", ()),
    "float": ("a float", (float,)),
    "float | None": ("a float or None", (float, type(None))),
    "bool": ("a bool", (bool,)),
    "str": ("a str", (str,)),
}


def rejected(cls, name, value) -> str:
    with pytest.raises(ValueError) as err:
        cls(**{**(PATHS if cls is PipelineConfig else {}), name: value})
    return str(err.value)


def ids(fields):
    return [f"{cls.__name__}.{f.name}" for cls, f in fields]


RULED = [(cls, f) for cls, f in FIELDS if "rule" in f.metadata]


@pytest.mark.parametrize("cls,f", RULED, ids=ids(RULED))
def test_a_value_just_outside_the_rule_gives_its_message(cls, f):
    rule = f.metadata["rule"]
    values = OUTSIDE[rule, f.type] + ([math.nan] if f.type == "float" else [])
    for value in values:
        assert rejected(cls, f.name, value) == f"{f.name} must be {rule}, got {value}"


@pytest.mark.parametrize("cls,f", FIELDS, ids=ids(FIELDS))
def test_a_value_of_the_wrong_type_gives_the_type_message(cls, f):
    hint = typing.get_type_hints(cls)[f.name]
    if typing.get_origin(hint) is typing.Literal:
        for value in ("1", True, 1.5, None, "bogus"):
            assert rejected(cls, f.name, value) == f"unknown {f.name}: {value!r}"
        return
    kind, accepted = TYPES[f.type]
    for value in ("1", True, 1.5, None):
        if type(value) not in accepted:
            assert rejected(cls, f.name, value) == f"{f.name} must be {kind}, got {value!r}"


def test_the_fields_with_choices_are_literals():
    assert {f.name for _, f in FIELDS if f.type.startswith("Literal[")} == {
        "norm", "route", "tokenization"}
