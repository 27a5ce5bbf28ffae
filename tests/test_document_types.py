"""The one type rule every input document class applies to its fields."""

import math
from dataclasses import fields
from typing import Literal, get_args, get_origin, get_type_hints

import pytest

from csr.cli import TraceEntry
from csr.pipeline import IterationSchedule, PipelineConfig, QueryRequest
from csr.relational import RankingConfig
from csr.similarity import SimilarityConfig
from csr.synthetic import GeneratorProfile, ProfileError

SCHEDULE = IterationSchedule(steps=((4, 8, 6), (2, 4, 4)))

# One valid instance of each document class; optional fields hold a value,
# so a wrong value can be put inside it.
VALID = [
    SimilarityConfig(external_endpoint="http://127.0.0.1:9/embed"),
    RankingConfig(),
    SCHEDULE,
    PipelineConfig(schedule=SCHEDULE, unavailable_tables=("orders",)),
    QueryRequest("open orders", SCHEDULE, max_entities=3, include_timings=True),
    GeneratorProfile(),
    TraceEntry("open orders", "SELECT 1 FROM orders", tables=["orders"]),
]


def _wrong_values(annotation, valid) -> list:
    """Values of the wrong JSON type for a field annotated ``annotation``
    whose value in a valid document is ``valid``."""
    args = get_args(annotation)
    if type(None) in args:  # null is right here
        return [v for v in _wrong_values(args[0], valid) if v is not None]
    if annotation is int:
        return [None, "3", True, 3.5]
    if annotation is float:
        return [None, "1.5", True, math.nan, math.inf, -math.inf, 10**400]
    if annotation is bool:
        return [None, "false", 0, 1]
    if annotation is str or get_origin(annotation) is Literal:
        return [None, 5, True, [valid]]
    if get_origin(annotation) in (tuple, list):
        wrong = [None, "x", {}]
        if args[-1] is not Ellipsis and get_origin(annotation) is tuple:
            wrong += [list(valid[:-1]), [*valid, valid[0]]]
        # The first item replaced by each wrong value of its type.
        return wrong + [
            [bad, *valid[1:]] for bad in _wrong_values(args[0], valid[0])
        ]
    return [None, {}, "x"]  # a dataclass field takes only an instance


CASES = [
    pytest.param(doc, f.name, id=f"{type(doc).__name__}.{f.name}")
    for doc in VALID
    for f in fields(doc)
]


@pytest.mark.parametrize("doc,name", CASES)
def test_a_wrongly_typed_field_is_rejected_naming_it(doc, name):
    cls = type(doc)
    annotation = get_type_hints(cls)[name]
    error = ProfileError if cls is GeneratorProfile else ValueError
    values = {f.name: getattr(doc, f.name) for f in fields(doc)}
    wrong = _wrong_values(annotation, values[name])
    assert wrong
    for value in wrong:
        with pytest.raises(error, match=f"^{name} must be "):
            cls(**{**values, name: value})


@pytest.mark.parametrize(
    "load,doc,expected",
    [
        (GeneratorProfile.from_dict, {}, GeneratorProfile()),
        (GeneratorProfile.from_dict, {"fk_median_target": 8}, GeneratorProfile()),
        (PipelineConfig.from_dict, {}, PipelineConfig()),
        (
            PipelineConfig.from_dict,
            {"similarity": {"bm25_k1": 2, "bm25_b": 1, "external_timeout": 3}},
            PipelineConfig(
                similarity=SimilarityConfig(
                    bm25_k1=2.0, bm25_b=1.0, external_timeout=3.0
                )
            ),
        ),
        (
            PipelineConfig.from_dict,
            {"unavailable_tables": ["orders"]},
            PipelineConfig(unavailable_tables=("orders",)),
        ),
        (IterationSchedule.from_dict, SCHEDULE.to_dict(), SCHEDULE),
        (
            QueryRequest.from_dict,
            {"question": "q", "schedule_override": {"steps": [[4, 8, 6], [2, 4, 4]]}},
            QueryRequest("q", SCHEDULE),
        ),
        (
            QueryRequest.from_dict,
            {"question": "q", "schedule_override": None},
            QueryRequest("q"),
        ),
        (PipelineConfig.from_dict, {"schedule": None}, PipelineConfig()),
    ],
    ids=[
        "profile-defaults",
        "profile-int-in-float",
        "config-defaults",
        "similarity-ints-in-floats",
        "config-list-in-tuple",
        "schedule-lists-in-tuples",
        "request-schedule-lists",
        "request-schedule-null",
        "config-schedule-null",
    ],
)
def test_a_correctly_typed_document_loads_to_an_equal_object(load, doc, expected):
    assert load(doc) == expected


@pytest.mark.parametrize("section", ["similarity", "ranking"])
def test_a_required_section_given_as_null_is_rejected_naming_it(section):
    with pytest.raises(
        ValueError, match=f"^invalid pipeline config: {section} must be a JSON object$"
    ):
        PipelineConfig.from_dict({section: None})


def test_an_optional_section_of_the_wrong_type_is_named_in_json_terms():
    with pytest.raises(ValueError, match="^schedule must be a JSON object or null$"):
        PipelineConfig(schedule=5)


def test_a_schedule_built_from_lists_holds_tuples():
    schedule = IterationSchedule(steps=[[4, 8, 6], [2, 4, 4]])
    assert schedule.steps == ((4, 8, 6), (2, 4, 4))
    assert schedule == SCHEDULE
    assert hash(schedule) == hash(SCHEDULE)
