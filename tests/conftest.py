import sys
import tempfile
from pathlib import Path

from hypothesis.configuration import set_hypothesis_home_dir

sys.path.insert(0, str(Path(__file__).resolve().parent))

# Hypothesis writes its example database and caches under its home directory,
# `.hypothesis/` in the working directory unless told otherwise. A test run
# keeps them in a temporary directory, so it writes nothing under the checkout.
_hypothesis_home = tempfile.TemporaryDirectory(prefix="apimod-hypothesis-")
set_hypothesis_home_dir(_hypothesis_home.name)


def pytest_unconfigure(config):
    _hypothesis_home.cleanup()
