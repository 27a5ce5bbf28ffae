import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from csr.topk import top_k_exact


def sort_and_slice(scores, ids, k):
    return sorted(zip(ids, scores), key=lambda p: (-p[1], p[0]))[:k]


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_scores_rejected(bad):
    with pytest.raises(ValueError, match="finite"):
        top_k_exact(np.array([bad, 1.0, 0.5, bad]), [0, 1, 2, 3], 2)


def test_nan_no_longer_gives_empty_result():
    with pytest.raises(ValueError):
        top_k_exact(np.array([math.nan, 1.0, 0.5, math.nan]), [0, 1, 2, 3], 2)


def test_empty_candidates():
    assert top_k_exact(np.array([]), [], 3) == []


@given(
    st.lists(st.sampled_from([0.0, 0.25, 0.5, 1.0, -1.0]), max_size=30),
    st.integers(min_value=1, max_value=35),
    st.randoms(use_true_random=False),
)
@settings(max_examples=200, deadline=None)
def test_tied_scores_match_sort_and_slice(values, k, rnd):
    ids = list(range(100, 100 + len(values)))
    rnd.shuffle(ids)
    scores = np.array(values, dtype=np.float64)
    assert top_k_exact(scores, ids, k) == sort_and_slice(values, ids, k)
