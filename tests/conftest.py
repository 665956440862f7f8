from hypothesis import settings

# Property tests draw the same examples on every run, so a failure
# reproduces and the suite's runtime stays fixed.
settings.register_profile("deterministic", derandomize=True, deadline=None,
                          max_examples=40, database=None)
settings.load_profile("deterministic")
