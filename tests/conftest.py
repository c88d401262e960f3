"""Hypothesis profiles for the test suite.

``ci`` is selected by the CI workflow (``--hypothesis-profile=ci``): a
property that fails there prints the ``@reproduce_failure`` blob that
replays it.  Without the option the default profile applies.
"""
from hypothesis import settings

settings.register_profile("ci", print_blob=True)
