"""Run the tests that share the directional-study fixture last.

That fixture trains nine models and takes most of the suite's wall time;
every other test reports before it starts.
"""


def pytest_collection_modifyitems(items):
    items.sort(key=lambda item: "directional_study" in getattr(item, "fixturenames", ()))
