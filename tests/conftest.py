"""Hypothesis profiles and shared fixtures for the test suite.

``ci`` is selected by the CI workflow (``--hypothesis-profile=ci``): a
property that fails there prints the ``@reproduce_failure`` blob that
replays it.  Without the option the default profile applies.
"""
import pytest
from hypothesis import settings

import crmfp.ellipsoid as ellipsoid_module

settings.register_profile("ci", print_blob=True)


@pytest.fixture
def screen_every_stack(monkeypatch):
    """Let every stack anchor shared points, however small: tests of the
    interior screen run on stacks below SCREEN_MIN_ENTRIES, which by
    default never screen."""
    monkeypatch.setattr(ellipsoid_module, "SCREEN_MIN_ENTRIES", 0)
