"""Hypothesis profiles: ``HYPOTHESIS_PROFILE=ci`` runs the property tests
that leave ``max_examples`` to the profile with 2000 examples instead of
the default 100; tests that set their own count keep it."""

import os

from hypothesis import settings

settings.register_profile("ci", max_examples=2000)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))
