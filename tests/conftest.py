"""Settings shared by every test module."""

import tempfile

from hypothesis.configuration import set_hypothesis_home_dir

# Hypothesis caches what it reads from the source files while collecting;
# that cache goes to a temporary directory removed at exit, not the repository.
_HYPOTHESIS_HOME = tempfile.TemporaryDirectory(prefix="snowball-hypothesis-")
set_hypothesis_home_dir(_HYPOTHESIS_HOME.name)
