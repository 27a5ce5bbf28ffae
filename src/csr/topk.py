"""Exact bounded top-k selection over score arrays.

Selection must be indistinguishable from "sort everything by (score desc,
id asc) and slice", including boundary ties, because retrieval results are
checked against exhaustive oracles. The partition step only bounds the
amount of full sorting; candidates tied at the k-th score are all kept and
resolved by the id tie-break.
"""

from __future__ import annotations

import numpy as np


def top_k_exact(
    scores: np.ndarray, ids: list[int], k: int
) -> list[tuple[int, float]]:
    """First k (id, score) pairs by descending score, ties by ascending id.

    Raises ValueError on a NaN or infinite score, which has no place in that
    order.
    """
    n = len(ids)
    if n == 0:
        return []
    if not np.isfinite(scores).all():
        raise ValueError("top-k selection needs finite scores")
    ids_arr = np.asarray(ids, dtype=np.int64)
    if k < n:
        kth_score = np.partition(scores, n - k)[n - k]
        keep = np.nonzero(scores >= kth_score)[0]
        sub_scores = scores[keep]
        sub_ids = ids_arr[keep]
    else:
        sub_scores = scores
        sub_ids = ids_arr
    order = np.lexsort((sub_ids, -sub_scores))[: min(k, n)]
    return [(int(sub_ids[i]), float(sub_scores[i])) for i in order]
