"""A small least-recently-used mapping for bounded caches.

Serving's worker-process plan caches are keyed by (artifact path,
content fingerprint), a key space that is unbounded in production: under
repeated hot swaps a plain dict grows without limit.  :class:`LRUCache`
is the bound: a dict with capped size that evicts the least recently
touched entry.

Not thread-safe on its own; callers that share one instance across
threads guard it with their own lock (the worker-process caches are
single-threaded per process and need none).
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Any, Hashable


class LRUCache:
    """A bounded mapping evicting the least recently used entry.

    ``get`` refreshes recency; ``put`` inserts (or refreshes) and evicts
    the oldest entry once ``maxsize`` is exceeded.
    """

    def __init__(self, maxsize: int):
        if maxsize < 1:
            raise ValueError("maxsize must be >= 1")
        self.maxsize = maxsize
        self._entries: OrderedDict[Hashable, Any] = OrderedDict()

    def get(self, key: Hashable, default: Any = None) -> Any:
        try:
            self._entries.move_to_end(key)
        except KeyError:
            return default
        return self._entries[key]

    def put(self, key: Hashable, value: Any) -> Any:
        """Insert ``key`` -> ``value`` (refreshing recency) and return the
        stored value, evicting the oldest entries past ``maxsize``."""
        self._entries[key] = value
        self._entries.move_to_end(key)
        while len(self._entries) > self.maxsize:
            self._entries.popitem(last=False)
        return value

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: Hashable) -> bool:
        return key in self._entries

    def clear(self) -> None:
        self._entries.clear()
