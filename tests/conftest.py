"""Test-suite settings.

``--hypothesis-profile=ci`` derandomizes the property tests, so a failure
in continuous integration reproduces exactly; local runs stay randomized.
"""

from hypothesis import settings

settings.register_profile("ci", derandomize=True)
