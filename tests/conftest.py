"""Test-suite settings shared by every module under ``tests``.

Hypothesis runs under one profile: ``derandomize`` draws the same examples on
every run (and keeps no example database), and ``deadline=None`` keeps a
slow example on a loaded machine from failing a test.
"""

from hypothesis import settings

settings.register_profile("deterministic", derandomize=True, deadline=None)
settings.load_profile("deterministic")
