"""One hypothesis profile for every property test: the same examples on
every run, no example database and no deadline.  A test's own `settings`
sets only its `max_examples`."""
from hypothesis import settings

settings.register_profile("ghzpurify", derandomize=True, database=None, deadline=None)
settings.load_profile("ghzpurify")
