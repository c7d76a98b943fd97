"""Key-to-token hashing (the partitioner).

Mirrors Cassandra's ``RandomPartitioner``: tokens are 127-bit integers
derived from an MD5 digest of the key, giving a uniform spread of keys over
the ring regardless of key naming patterns (YCSB keys are ``user#####``,
highly structured -- the hash removes that structure).

``token_of`` is the single hashing entry point so that ring placement,
tests and benchmarks can never disagree about where a key lives.
"""

from __future__ import annotations

import hashlib
from functools import lru_cache

__all__ = ["TOKEN_SPACE", "token_of"]

#: Size of the token space: tokens are integers in ``[0, TOKEN_SPACE)``.
TOKEN_SPACE = 2**127


@lru_cache(maxsize=200_000)
def token_of(key: str) -> int:
    """Map a key to its ring token (stable across processes and runs).

    The cache makes repeated hashing of a zipfian-skewed key population
    (YCSB's hot keys are hit millions of times) effectively free. It holds
    only the keys a run touched: the load phase hashes a key at its first
    placement resolve, not when it is preloaded, so 200k entries cover far
    larger record counts than the default ones.
    """
    digest = hashlib.md5(key.encode("utf-8")).digest()
    return int.from_bytes(digest, "big") % TOKEN_SPACE
