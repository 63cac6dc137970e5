"""Bad: Generator draws inside loops in a hot-path-marked module (RL108).

# reprolint: hot-path
"""


def jitter_each(jobs, rng, std: float) -> list:
    out = []
    for job in jobs:
        out.append(job.load * (1.0 + rng.normal(0.0, std)))  # rl-expect: RL108
    return out


def noise_per_job(self, jobs) -> list:
    return [self._rng.standard_normal(len(job.members)) for job in jobs]  # rl-expect: RL108


def until_accepted(gen, limit: float) -> float:
    draw = 2.0 * limit
    while draw > limit:
        draw = gen.exponential(1.0)  # rl-expect: RL108
    return draw


def retry_while_drawing(source, limit: float) -> int:
    tries = 0
    while source.stream("exec").random() > limit:  # rl-expect: RL108
        tries += 1
    return tries


def nested(jobs, rng) -> dict:
    # Reported once, although two loops enclose it.
    return {job.job_id: [rng.uniform() for _ in job.phases] for job in jobs}  # rl-expect: RL108
