from hypothesis import settings

# `pytest --hypothesis-profile=ci` draws more examples, in a fixed order, so a
# CI failure reproduces from the log alone; the default profile is unchanged.
settings.register_profile("ci", max_examples=1000, derandomize=True)
