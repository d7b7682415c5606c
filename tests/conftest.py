import numpy as np
import pytest

from panelmean import PanelDataset, SimConfig, Subject, gen_dataset

TABLE1 = dict(beta1=(0.5, 1.0), beta2=(-1.0, 0.5), baseline1="t", baseline2="2t")


def table1_config(n, replications=1, seed=42):
    return SimConfig(n=n, replications=replications, seed=seed, **TABLE1)


def random_small_dataset(rng, n=None, k=1, d=2, max_counts=6):
    """Small random dataset with integer-ish times so ties occur."""
    n = n or int(rng.integers(2, 7))
    subjects = []
    for i in range(n):
        m = int(rng.integers(1, 5))
        times = np.sort(rng.choice(np.arange(1, 12), size=m, replace=False)).astype(float)
        counts = np.sort(rng.integers(0, max_counts, size=(k, m)), axis=1)
        z = rng.normal(0, 1, size=d)
        subjects.append(Subject(str(i), times, counts, z))
    return PanelDataset(subjects, k=k, d=d)


def epoch_members(data, q):
    """(subject index, observation index) pairs of the epochs at distinct
    time q, read from the dataset's flat arrays."""
    a = data.arrays
    first = np.searchsorted(a.subj, a.subj)  # first epoch of each epoch's subject
    return [(int(a.subj[e]), int(e - first[e])) for e in np.flatnonzero(a.inverse == q)]


@pytest.fixture(scope="session")
def table1_dataset_n200():
    cfg = table1_config(n=200)
    return gen_dataset(cfg, np.random.default_rng([cfg.seed, 0]))


@pytest.fixture(scope="session")
def table1_dataset_n100():
    cfg = table1_config(n=100)
    return gen_dataset(cfg, np.random.default_rng([cfg.seed, 0]))
