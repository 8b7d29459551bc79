"""Package errors survive pickling, as they must to cross from a worker process."""

import pickle

import pytest

from multisent import errors
from multisent.errors import (
    ArgumentError,
    ConfigurationError,
    CoverageError,
    LeakageError,
    MultisentError,
    ParseError,
    RecordDropError,
    SchemaError,
)

# One instance of each error class, with every attribute it carries set.
SAMPLES = [
    MultisentError("base"),
    ParseError("bad number", line=3),
    SchemaError("unknown label", line=7),
    ArgumentError("k must be positive"),
    ConfigurationError("kind must be one of ..."),
    CoverageError("dictionary covers 16 of 20 pivots", shortfall=4),
    RecordDropError("r1", "no tokens after normalization"),
    LeakageError("training artifacts consulted 2 held-out ids"),
]


def test_samples_cover_every_error_class():
    defined = {cls for cls in vars(errors).values()
               if isinstance(cls, type) and issubclass(cls, MultisentError)}
    assert {type(err) for err in SAMPLES} == defined


@pytest.mark.parametrize("err", SAMPLES, ids=lambda err: type(err).__name__)
def test_round_trip_keeps_class_message_and_attributes(err):
    back = pickle.loads(pickle.dumps(err))
    assert type(back) is type(err)
    assert str(back) == str(err)
    assert back.args == err.args
    assert vars(back) == vars(err)

