import pytest

from tailwise.errors import InvalidConfig
from tailwise.fromjson import from_json, read_value
from tailwise.tailfit import FitConfig


def nested(depth):
    """A list ``depth`` lists deep, built without the JSON parser."""
    value = []
    for _ in range(depth):
        value = [value]
    return value


class TestDeepValues:
    # Too deep for json.dumps to render in the error message; the caller's error is raised anyway.
    def test_read_value_raises_the_callers_error(self):
        with pytest.raises(InvalidConfig, match="x: expected int, got a value nested too deep"):
            read_value(int, nested(100_000), "x", InvalidConfig)

    def test_from_json_raises_the_callers_error(self):
        with pytest.raises(InvalidConfig, match="fit: expected an object, got a value nested"):
            from_json(FitConfig, nested(100_000), "fit", InvalidConfig)
