"""Shared runs that more than one test module asserts on."""

import pytest

from rfdestab import example_5_4


@pytest.fixture(scope="session")
def fitted_envelope_report():
    """example-5.4's fitted-envelope-with-gain certificate at its defaults.

    A decay envelope fitted to 24 runs, with the input gain, checked on 12
    fresh runs (about 12 s); run once and read by acceptance criterion 4 and
    the bundle's own test.
    """
    return example_5_4().certificate("fitted-envelope-with-gain").runner()
