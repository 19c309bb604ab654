"""Top-k answer generation: naive, exhaustive, and branch-and-bound."""

from .candidate import CandidateTree
from .naive import NaiveSearch
from .enumerate import enumerate_answers
from .bounds import UpperBoundEstimator
from .arena import CandidateArena
from .branch_and_bound import (
    AnytimeSnapshot,
    BranchAndBoundSearch,
    SearchStats,
)

__all__ = [
    "CandidateTree",
    "CandidateArena",
    "NaiveSearch",
    "enumerate_answers",
    "UpperBoundEstimator",
    "AnytimeSnapshot",
    "BranchAndBoundSearch",
    "SearchStats",
]
