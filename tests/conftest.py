"""Suite-wide fixtures."""

import pytest

from repro.runtime.cache import ENV_CACHE_DIR


@pytest.fixture(autouse=True)
def _private_result_cache(tmp_path, monkeypatch):
    """Point the default result cache at the test's own directory.

    ``repro run`` and ``report`` use the cache unless ``--no-cache`` is
    given, so without this every CLI test would read and write the
    user's ``~/.cache/opm-repro``, and a warm entry there would hide the
    computation (and its spans) a test means to observe. Subprocess
    tests inherit the variable through their copy of ``os.environ``.
    """
    monkeypatch.setenv(ENV_CACHE_DIR, str(tmp_path / "result-cache"))
