import os

from hypothesis import settings

# CI selects this profile (HYPOTHESIS_PROFILE=ci); property tests that do not
# fix max_examples themselves, such as the CSV text kernels', then run 5000 examples.
settings.register_profile("ci", max_examples=5000, deadline=None)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))
