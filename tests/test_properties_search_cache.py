"""Mutation tests for the lazy search's admit-time cheap bound.

The lazily tightened search admits children on a cheap inherited bound
and computes the full ``ce/pe`` bound only at the heap head.  Soundness
must come from the cheap bound's admissibility, never from its
tightness: an inadmissible (deflated) cheap bound is caught by the
differential oracle (:func:`repro.testing.differential_check`) within a
bounded seed sweep, while an inflated (loose but admissible) one stays
sound.
"""

from __future__ import annotations

import pytest

from repro.search.branch_and_bound import BranchAndBoundSearch
from repro.testing import DifferentialFailure, check_case, random_case

#: Seeds to try before concluding a mutation went unnoticed (mirrors
#: ``TestMutationsAreCaught`` in test_properties_differential.py).
SWEEP = 80


class TestCheapBoundMutations:
    """The differential oracle must notice an inadmissible cheap bound."""

    def test_deflated_cheap_bound_is_caught(self, monkeypatch):
        """A cheap bound far below the inherited value is inadmissible:
        the search stops (or prunes) while better answers remain, and
        the oracle comparison notices within the sweep."""
        real = BranchAndBoundSearch._cheap_bound
        monkeypatch.setattr(
            BranchAndBoundSearch,
            "_cheap_bound",
            lambda self, inherited: 0.01 * real(self, inherited),
        )
        with pytest.raises(DifferentialFailure):
            for seed in range(SWEEP):
                check_case(
                    random_case(seed),
                    check_indexes=False,
                    check_naive=False,
                    check_strict=False,
                )

    def test_inflated_cheap_bound_stays_sound(self):
        """A looser-but-admissible cheap bound must not change results.

        Inflating the inherited bound only delays pruning; the tight
        bound still gates expansion and the stop rule still certifies
        the top-k.  This pins down that correctness rests on
        admissibility alone, never on the cheap bound's tightness.
        """
        real = BranchAndBoundSearch._cheap_bound
        BranchAndBoundSearch._cheap_bound = (
            lambda self, inherited: 4.0 * real(self, inherited) + 1e-6
        )
        try:
            for seed in range(30):
                check_case(
                    random_case(seed),
                    check_indexes=False,
                    check_naive=False,
                    check_strict=False,
                )
        finally:
            BranchAndBoundSearch._cheap_bound = real
