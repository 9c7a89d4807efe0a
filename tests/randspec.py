"""Randomized DGP generators shared by property and acceptance tests."""

import dataclasses
import math

import numpy as np

from dynlate.dgp import DgpSpec, HistorySpec, make_calendar_homogeneous
from dynlate.latent import NEVER, AdoptionPair

from reference import enumerate_histories


def _triangular(rng, T, lo, hi):
    return tuple(tuple(rng.uniform(lo, hi) for _ in range(t)) for t in range(1, T + 1))


def _choose_pairs(rng, T, remark2=False):
    pool = enumerate_histories(T)
    if remark2:
        pool = [p for p in pool if p.s1 == 1 or p.s1 == p.s0]
    c1_pool = [p for p in pool if p.s1 == 1 and p.s0 >= 2]
    keep = [p for p in pool if rng.random() < 0.7]
    if not any(p in keep for p in c1_pool):
        keep.append(c1_pool[int(rng.integers(len(c1_pool)))])
    return keep


def _probs(rng, k, c1_index):
    probs = rng.dirichlet(np.ones(k))
    if probs[c1_index] < 0.05:
        probs[c1_index] += 0.05
        probs = probs / probs.sum()
    return probs


def random_spec(rng, T=None, effect_scale=2.0, noise_sd=0.0, remark2=False):
    """A DGP over a random history subset with unrestricted effect surfaces."""
    T = int(T if T is not None else rng.integers(2, 7))
    pairs = _choose_pairs(rng, T, remark2=remark2)
    c1_index = next(i for i, p in enumerate(pairs) if p.s1 == 1 and p.s0 >= 2)
    probs = _probs(rng, len(pairs), c1_index)
    histories = tuple(
        HistorySpec(
            pair=p,
            prob=float(probs[i]),
            baseline=tuple(rng.uniform(-1.0, 1.0, T)),
            effects=_triangular(rng, T, -effect_scale, effect_scale),
        )
        for i, p in enumerate(pairs)
    )
    return DgpSpec(T=T, pz=0.5, histories=histories, noise_sd=noise_sd)


def _contaminating_entries(pair, T):
    """(t, tau) entries a switcher history contributes to some decomposition."""
    if pair.s1 == pair.s0:
        return
    for s in {pair.s1, pair.s0}:
        if s == NEVER or s < 2:
            continue
        for t in range(int(s), T + 1):
            yield t, t - int(s)


def random_bounded_spec(rng, lo, hi, T=None, target_scale=4.0, cross_group=False,
                        remark2=False, noise_sd=0.0):
    """A DGP whose contaminating effects all lie in [lo, hi].

    Effects entering period-t decompositions through switcher groups are
    drawn from [lo, hi]; with ``cross_group`` they are shared per
    (period, exposure) across histories, which enforces the equal-effects
    condition for the tighter bounds. Complier-path effects (exposure
    t-1 for histories adopting at 1 under z=1) stay unrestricted, so the
    true dynamic effects may fall outside [lo, hi].
    """
    assert lo <= hi
    T = int(T if T is not None else rng.integers(2, 7))
    pairs = _choose_pairs(rng, T, remark2=remark2)
    c1_index = next(i for i, p in enumerate(pairs) if p.s1 == 1 and p.s0 >= 2)
    probs = _probs(rng, len(pairs), c1_index)
    shared = {
        (t, tau): rng.uniform(lo, hi)
        for t in range(2, T + 1)
        for tau in range(0, t - 1)
    }
    histories = []
    for i, p in enumerate(pairs):
        effects = [
            [rng.uniform(-target_scale, target_scale) for _ in range(t)]
            for t in range(1, T + 1)
        ]
        for t, tau in _contaminating_entries(p, T):
            effects[t - 1][tau] = shared[(t, tau)] if cross_group else rng.uniform(lo, hi)
        histories.append(
            HistorySpec(
                pair=p,
                prob=float(probs[i]),
                baseline=tuple(rng.uniform(-1.0, 1.0, T)),
                effects=tuple(tuple(row) for row in effects),
            )
        )
    return DgpSpec(T=T, pz=0.5, histories=tuple(histories), noise_sd=noise_sd)


def random_homogeneous_spec(rng, T=None, profile_scale=2.0, noise_sd=0.0):
    """A calendar-homogeneous DGP with a random exposure profile."""
    T = int(T if T is not None else rng.integers(2, 7))
    pairs = _choose_pairs(rng, T)
    c1_index = next(i for i, p in enumerate(pairs) if p.s1 == 1 and p.s0 >= 2)
    probs = _probs(rng, len(pairs), c1_index)
    profile = tuple(rng.uniform(-profile_scale, profile_scale, T))
    return make_calendar_homogeneous(
        T=T,
        pz=0.5,
        history_probs={p: float(probs[i]) for i, p in enumerate(pairs)},
        baselines=tuple(rng.uniform(-1.0, 1.0, T)),
        delta_profile=profile,
        noise_sd=noise_sd,
    ), profile


def static_compliance_spec(rng, T=None, noise_sd=0.0):
    """No switching after period 1: only s0 in {s1, NEVER} with s1 in {1, NEVER}."""
    T = int(T if T is not None else rng.integers(2, 7))
    pairs = [AdoptionPair(1, NEVER), AdoptionPair(1, 1), AdoptionPair(NEVER, NEVER)]
    probs = _probs(rng, len(pairs), 0)
    histories = tuple(
        HistorySpec(
            pair=p,
            prob=float(probs[i]),
            baseline=tuple(rng.uniform(-1.0, 1.0, T)),
            effects=_triangular(rng, T, -2.0, 2.0),
        )
        for i, p in enumerate(pairs)
    )
    return DgpSpec(T=T, pz=0.5, histories=histories, noise_sd=noise_sd)


def all_pairs_spec(rng, T, noise_sd):
    """Every adoption pair of horizon T, with random probabilities and means."""
    pairs = enumerate_histories(T)
    probs = rng.dirichlet(np.ones(len(pairs)))
    return DgpSpec(
        T=T, pz=0.5, noise_sd=noise_sd,
        histories=tuple(
            HistorySpec(p, float(q), tuple(rng.uniform(-1, 1, T)),
                        tuple(tuple(rng.uniform(-2, 2, t)) for t in range(1, T + 1)))
            for p, q in zip(pairs, probs)
        ),
    )


def variant_spec(variant, T, noise_sd, rng):
    """A random spec of one kind the draws and the oracle must handle.

    - "zero-probs": some histories have probability 0.
    - "all-pairs": every adoption pair; at T=6 its histories are counted
      against the CDF, at T=8 (73 histories) binary-searched.
    - "negative-zero": every baseline and effect at t=1 is -0.0, so the
      cells treated from t=1 have mean -0.0 + -0.0 = -0.0 there.
    """
    if variant == "all-pairs":
        return all_pairs_spec(rng, T, noise_sd)
    spec = random_spec(rng, T=T, noise_sd=noise_sd)
    histories = spec.histories
    if variant == "zero-probs":
        kept = [h.pair.s1 == 1 and h.pair.s0 >= 2 or rng.random() < 0.5 for h in histories]
        total = math.fsum(h.prob for h, k in zip(histories, kept) if k)
        histories = [
            dataclasses.replace(h, prob=h.prob / total if k else 0.0)
            for h, k in zip(histories, kept)
        ]
    elif variant == "negative-zero":
        histories = [
            dataclasses.replace(
                h, baseline=(-0.0, *h.baseline[1:]), effects=((-0.0,), *h.effects[1:])
            )
            for h in histories
        ]
    return dataclasses.replace(spec, histories=tuple(histories))
