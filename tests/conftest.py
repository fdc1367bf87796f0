"""Test-suite settings: hypothesis runs derandomized and without deadlines,
so property tests give the same verdict on every run and on slow hosts."""

from hypothesis import settings

settings.register_profile("vq360", deadline=None, derandomize=True)
settings.load_profile("vq360")
