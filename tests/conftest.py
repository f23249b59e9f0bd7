"""Hypothesis settings for the whole suite.

No deadline: the reference dynamic programs and the larger draws take
longer than hypothesis's default 200 ms, and a timing failure would say
nothing about the numbers.  ``print_blob`` prints the reproduction blob
of a failing example, so a failure in CI can be replayed from its log
with ``@reproduce_failure``.
"""

from hypothesis import settings

settings.register_profile("pinlab", deadline=None, print_blob=True)
settings.load_profile("pinlab")
