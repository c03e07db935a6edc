"""The one executor behind every `jobs` option: an order-preserving map
over a thread pool."""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor


def pmap(fn, items, jobs: int) -> list:
    """[fn(x) for x in items], on up to `jobs` threads when jobs > 1.
    Results come back in input order whatever the completion order, so
    `jobs` never changes an output."""
    items = list(items)
    if jobs > 1 and len(items) > 1:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            return list(pool.map(fn, items))
    return [fn(x) for x in items]
