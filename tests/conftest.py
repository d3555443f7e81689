import time

import pytest

from rtlab.cli import check_catalogue
from rtlab.localbounds import load_catalogue


@pytest.fixture(scope="session")
def graded_catalogue():
    """Grade a built-in catalogue through ``cli.check_catalogue`` at most once
    per session: ``graded_catalogue(which)`` returns (segment, entries, wall
    seconds of the build plus the grading)."""
    graded = {}

    def grade(which):
        if which not in graded:
            started = time.perf_counter()
            segment, _, entries = check_catalogue(which, load_catalogue(which), jobs=4)
            graded[which] = segment, entries, time.perf_counter() - started
        return graded[which]

    return grade
