import time

import pytest

from rtlab.cli import check_catalogues
from rtlab.localbounds import load_catalogue


@pytest.fixture(scope="session")
def graded_catalogue():
    """Grade a built-in catalogue on its own through ``cli.check_catalogues``
    at most once per session: ``graded_catalogue(which)`` returns (segment,
    entries, wall seconds of the build plus the grading)."""
    graded = {}

    def grade(which):
        if which not in graded:
            started = time.perf_counter()
            segment, _, entries = check_catalogues({which: load_catalogue(which)})[which]
            graded[which] = segment, entries, time.perf_counter() - started
        return graded[which]

    return grade
