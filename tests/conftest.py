"""Test-session settings.

``--hypothesis-profile=ci`` (the CI workflow selects it) prints a
``@reproduce_failure`` blob for every failing property, so that a bitwise
property that fails on another machine's numpy can be replayed exactly.
"""

from hypothesis import settings

settings.register_profile("ci", print_blob=True, deadline=None)
