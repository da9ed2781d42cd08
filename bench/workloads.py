"""Workload definitions: the synthetic input each one generates and the CLI
command it runs on that input.

Every workload draws its data from ``synth_generate`` with the workload seed
and hands the program only the emitted CSV.  The CLI's own ``--seed`` (which
keys the resampling streams) is the same workload seed.  Only flags the
project keeps are passed: no ``--threads`` and no ``--config``.

Why each workload exists is recorded in ``BENCHMARK.json``: ``mcv_paper``
is the paper's headline run and is screening-bound, ``cv5_tall`` is LP-bound,
and ``screen_wide_real`` is ingest- and ranking-bound on a real response.

``TINY`` holds shrunken variants of the same commands for the harness smoke
test; they exercise every code path in a few seconds but are never timed.
"""

from dataclasses import dataclass, field


@dataclass(frozen=True)
class Workload:
    name: str
    synth: dict
    label: str
    command: list = field(default_factory=list)

    def cli_argv(self, data_csv, out_dir, seed):
        return [
            self.command[0],
            "--input",
            str(data_csv),
            "--label-col",
            self.label,
            *self.command[1:],
            "--seed",
            str(seed),
            "--out-dir",
            str(out_dir),
        ]

    def spec(self):
        """Canonical description, stored next to recorded references."""
        return {"synth": self.synth, "label": self.label, "command": list(self.command)}


FULL = {
    w.name: w
    for w in (
        Workload(
            name="mcv_paper",
            synth=dict(
                model="logistic",
                n=279,
                p=2000,
                active=4,
                coef=1.2,
                prior=191 / 279,
                class_counts=(191, 88),
            ),
            label="status",
            # 2 replications x 3 d keeps one invocation near 8 s on a 2-core box;
            # the paper's 50 would take 2.5 minutes.
            command=["mcv", "--d", "1/3,1/4,1/5", "--reps", "2"],
        ),
        Workload(
            name="cv5_tall",
            synth=dict(model="logistic", n=1000, p=10),
            label="status",
            command=["cv5", "--d", "1/4"],
        ),
        Workload(
            name="screen_wide_real",
            # p = 8000 rather than 20000 fits set-up, a warm-up and four timed
            # invocations into one run's budget; ingest and ranking still dominate.
            synth=dict(model="linear", n=148, p=8000),
            label="response",
            command=["screen"],
        ),
    )
}

TINY = {
    "mcv_paper": dict(
        synth=dict(model="logistic", n=60, p=40, active=4, coef=1.2, class_counts=(41, 19)),
        command=["mcv", "--d", "1/3,1/4,1/5", "--reps", "1"],
    ),
    "cv5_tall": dict(synth=dict(model="logistic", n=100, p=5), command=["cv5", "--d", "1/4"]),
    "screen_wide_real": dict(synth=dict(model="linear", n=30, p=300), command=["screen"]),
}


def get(name, tiny=False):
    workload = FULL[name]
    if not tiny:
        return workload
    small = TINY[name]
    return Workload(workload.name, small["synth"], workload.label, small["command"])


def generate(workload, seed, path):
    """Generate the workload's dataset for ``seed`` and write it to ``path``.

    Returns the in-memory dataset, which round-trips exactly through the CSV.
    """
    from dcovselect.data import emit, synth_generate

    kwargs = dict(workload.synth)
    n = kwargs.pop("n")
    p = kwargs.pop("p")
    ds, _ = synth_generate(n, p, seed=seed, **kwargs)
    emit(ds, path)
    return ds
