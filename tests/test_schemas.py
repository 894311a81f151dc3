"""The JSON schemas in schemas/ against what the code writes and reads."""

import json
from fractions import Fraction
from pathlib import Path

import pytest

from freeconv import cli, idclass
from freeconv.catalog import LAWS, MeasureSpec
from spec_ids import describe

jsonschema = pytest.importorskip("jsonschema")

SCHEMAS = Path(__file__).resolve().parent.parent / "schemas"


def validator(name):
    schema = json.loads((SCHEMAS / name).read_text())
    jsonschema.Draft202012Validator.check_schema(schema)
    return jsonschema.Draft202012Validator(schema)


def test_law_enum_is_the_catalog():
    schema = json.loads((SCHEMAS / "measure_spec.schema.json").read_text())
    law = next(v for v in schema["oneOf"] if v["properties"]["type"]["const"] == "law")
    assert sorted(law["properties"]["name"]["enum"]) == sorted(LAWS)


_PARAMS = {"semicircle": (Fraction(1, 2), 2.0), "marchenko_pastur": (Fraction(3, 4),),
           "quarter_circle": (1,), "beta_1a": (0.3,)}

SPECS = [
    MeasureSpec.atomic([(-1, Fraction(1, 3)), (0.5, Fraction(2, 3))]),
    MeasureSpec.grid([0.0, 1.0, 2.0], [0.25, 0.5, 0.25], atoms=[(3, 0.25)]),
    MeasureSpec.from_moments([0, 1, 0, Fraction(2)]),
    MeasureSpec.from_free_cumulants([1.5, 1, 0]),
] + [
    MeasureSpec.from_law(name, _PARAMS.get(name, ()), scale=Fraction(-3, 2), offset=0.25)
    for name in sorted(LAWS)
]


@pytest.mark.parametrize("mu", SPECS, ids=describe)
def test_serialized_specs_validate(mu):
    validator("measure_spec.schema.json").validate(cli.serialize_measure_spec(mu))


def test_serialized_triplet_validates():
    levy = idclass.LevyMeasure(atoms=((Fraction(1, 2), Fraction(3, 10)), (2, 0.7)),
                               xs=(0.5, 1.0, 1.5), densities=(0.0, 0.2, 0.0))
    obj = cli.serialize_triplet(idclass.FreeTriplet(Fraction(1, 2), 0, levy))
    assert obj["levy"]["atoms"] and obj["levy"]["grid"]
    validator("triplet.schema.json").validate(obj)
