"""Good: a hot-path module that draws each batch once.

# reprolint: hot-path
"""

import numpy as np


def jitter_each(loads: np.ndarray, rng: np.random.Generator, std: float) -> np.ndarray:
    # One draw for every job; the stream is the one per-job draws read.
    return loads * (1.0 + std * rng.standard_normal(len(loads)))


def draws_per_job(jobs: list, rng: np.random.Generator) -> list:
    # The iterable of a loop is evaluated once: drawing it is fine.
    return [job.load * z for job, z in zip(jobs, rng.standard_normal(len(jobs)))]


def not_a_generator(jobs: list, layout) -> list:
    # ``normal``-named methods on other receivers are not draws.
    return [layout.normal(job) for job in jobs]


def deferred(jobs: list, rng: np.random.Generator) -> list:
    # A function defined in a loop draws when called, not per iteration.
    return [lambda: rng.normal() for _ in jobs]
