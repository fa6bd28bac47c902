"""Seeded L2 violations: worker-reachable impurity of every flavour."""

import random
import sys

_cache: dict[int, int] = {}


def init_worker() -> None:
    _cache.clear()  # L2: mutator call on a module-global container
    setattr(sys, "dont_write_bytecode", True)  # L2: setattr on a shared module


def evaluate(payload: int) -> int:
    _cache[payload] = payload  # L2: item assignment on a module global
    jitter = int(random.random() * 4)  # lint: random-ok seeded corpus fixture
    gathered: list[int] = []

    def accumulate(value: int) -> None:
        gathered.append(value)  # L2: nested function mutates captured state

    accumulate(payload + jitter)
    return _pure_helper(payload)


def _pure_helper(payload: int) -> int:
    # Negative control: reads globals and mutates only locals.
    window = [payload, len(_cache)]
    window.append(payload)
    return sum(window)
