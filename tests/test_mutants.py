"""The mutation ratchet: every checked-in mutant of `mutants.py` stays
caught on the fixed sample of 100 functors of each kind.

A mutant pinned as caught fails the test when a suite check catches it
on fewer samples than its floor; one caught only by crashing has a floor
on the samples that raised.  A known survivor (a FOUND line in
CHANGES.md names it) must still change verdicts and still escape every
suite check, so a change that starts to catch it fails here until its
status is updated.
"""

import pytest

from modalfib import fingroupoids
from mutants import MUTANTS, Mutant, StaleMutant, compile_mutant, score_all

PER_KIND = 100

# mutant -> (floor on samples caught by a suite check, floor on samples
# that raised); SURVIVES for a known survivor
SURVIVES = None
EXPECTED = {
    "fiber_pass_first": (93, 0),
    "fiber_pass_last": (147, 0),
    "fiber_aut_trivial": SURVIVES,
    "classes_over_last": (350, 0),
    "class_codes_index1": (46, 0),
    "transport_inverse": (0, 141),
    "transport_loops_identity": (174, 0),
    "pullback_y_gens": (46, 0),
    "pullback_want": (81, 0),
}


@pytest.fixture(scope="module")
def scores():
    base, scores = score_all(PER_KIND)
    assert len(base) == 4 * PER_KIND
    # unmutated, every suite check holds on every sample
    assert all(holds for _, holds, _ in base)
    return scores


def test_every_mutant_has_an_expected_status():
    assert [m.name for m in MUTANTS] == list(EXPECTED)


@pytest.mark.parametrize("name", list(EXPECTED))
def test_mutant_keeps_its_status(scores, name):
    s = scores[name]
    assert s.changed > 0
    if EXPECTED[name] is SURVIVES:
        assert (s.caught, s.raised) == (0, 0), \
            "a known survivor is now caught: update its status"
        return
    caught, raised = EXPECTED[name]
    assert s.caught >= caught
    assert s.raised >= raised


@pytest.mark.parametrize("old", ["for s in S._gens[1:]:", "S"])
def test_stale_mutant_fails_loudly(old):
    # an old text that is gone, or occurs more than once, is refused
    # before the mutant runs
    with pytest.raises(StaleMutant):
        compile_mutant(Mutant("stale", "_fiber_pass", old, "pass"))


def test_mutants_leave_the_module_as_it_was():
    names = {m.function for m in MUTANTS}
    before = {n: getattr(fingroupoids, n) for n in names}
    score_all(1)
    assert {n: getattr(fingroupoids, n) for n in names} == before
