"""The per-process broadcast cache shared by every stateless-task stage."""

import numpy as np
import ray

from localhost_address_matching_ray.stages import broadcast
from localhost_address_matching_ray.stages.broadcast import cached_get


def test_cached_get_holds_one_entry():
    a = ray.put(np.arange(4))
    b = ray.put({"k": np.arange(3)})

    first = cached_get(a)
    assert first.tolist() == [0, 1, 2, 3]
    assert cached_get(a) is first  # fetched once, then served from the cache
    assert list(broadcast._CACHE) == [a.hex()]

    assert cached_get(b)["k"].tolist() == [0, 1, 2]
    assert list(broadcast._CACHE) == [b.hex()]  # replacement clears a

    assert cached_get(a).tolist() == [0, 1, 2, 3]
    assert list(broadcast._CACHE) == [a.hex()]

