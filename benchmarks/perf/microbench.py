"""Micro-benchmarks of the hot OSN write paths.

Run with ``python -m benchmarks.perf.microbench`` (PYTHONPATH=src).  Each
benchmark times the scalar path the event loop calls against the cohort
path the world generators call, on the same workload, so the speedup of
the cohort APIs is visible in isolation from the full study:

* ``like_page`` loop vs ``like_pages_fresh_many`` (the study's dominant
  cost: ~1.2M like writes at paper scale),
* ``LikeLog.record`` loop vs ``LikeLog.record_arrays``,
* ``add_friendship`` loop vs ``add_friendships_arrays``,
* ``weighted_sample_positive`` with and without the
  ``k == len(population)`` short-circuit being applicable,
* ``dataclasses.asdict`` vs ``record_row`` over every record of one
  small-study dataset (the row encoding the journal, the JSONL export and
  the store share), in values/s.
"""

from __future__ import annotations

import time
from dataclasses import asdict

import numpy as np

from repro.honeypot.storage import record_row
from repro.honeypot.study import HoneypotStudy, StudyConfig
from repro.osn.events import LikeEvent, LikeLog
from repro.osn.network import SocialNetwork
from repro.osn.profile import Gender
from repro.util.distributions import weighted_sample_positive, zipf_weights
from repro.util.rng import RngStream

N_USERS = 500
N_PAGES = 1000
LIKES_PER_USER = 100


def _timed(label: str, fn) -> float:
    start = time.perf_counter()
    result = fn()
    elapsed = time.perf_counter() - start
    print(f"  {label:<42} {elapsed * 1000:9.1f} ms", flush=True)
    return result if result is not None else elapsed


def _fresh_world() -> tuple:
    network = SocialNetwork()
    users = [
        network.create_user(gender=Gender.FEMALE, age=30, country="US").user_id
        for _ in range(N_USERS)
    ]
    pages = [network.create_page(f"page-{i}").page_id for i in range(N_PAGES)]
    return network, users, pages


def bench_like_writes() -> None:
    rng = RngStream(7, "microbench")
    batches = [
        rng.sample_without_replacement(range(N_PAGES), LIKES_PER_USER)
        for _ in range(N_USERS)
    ]
    print(f"like writes: {N_USERS} users x {LIKES_PER_USER} pages")

    network, users, pages = _fresh_world()
    def scalar():
        for user_id, batch in zip(users, batches):
            for index in batch:
                network.like_page(user_id, pages[index], time=0)
    _timed("scalar like_page loop", scalar)

    network, users, pages = _fresh_world()
    page_lists = [
        np.asarray([pages[i] for i in batch], dtype=np.int64) for batch in batches
    ]
    _timed(
        "like_pages_fresh_many",
        lambda: network.like_pages_fresh_many(users, page_lists, time=0),
    )


def bench_like_log() -> None:
    events = [
        LikeEvent(user_id=1, page_id=page_id, time=0) for page_id in range(50_000)
    ]
    print("like log: 50k events, one user")
    log = LikeLog()
    _timed("scalar record loop", lambda: [log.record(e) for e in events] and None)
    log2 = LikeLog()
    user_ids = np.full(len(events), 1, dtype=np.int64)
    page_ids = np.asarray([e.page_id for e in events], dtype=np.int64)
    _timed("record_arrays", lambda: log2.record_arrays(user_ids, page_ids, 0))


def bench_friendships() -> None:
    rng = RngStream(11, "microbench/friends")
    a = rng.generator.integers(0, N_USERS, size=100_000)
    b = rng.generator.integers(0, N_USERS, size=100_000)
    pairs = [(x, y) for x, y in zip(a.tolist(), b.tolist()) if x != y]
    print(f"friendship wiring: {len(pairs)} stub pairs")

    network, users, _ = _fresh_world()
    def scalar():
        for x, y in pairs:
            network.add_friendship(users[x], users[y])
    _timed("scalar add_friendship loop", scalar)

    network, users, _ = _fresh_world()
    ids = np.asarray(users, dtype=np.int64)
    a_ids = ids[np.asarray([x for x, _ in pairs], dtype=np.int64)]
    b_ids = ids[np.asarray([y for _, y in pairs], dtype=np.int64)]
    _timed(
        "add_friendships_arrays",
        lambda: network.add_friendships_arrays(a_ids, b_ids),
    )


def bench_weighted_sampling() -> None:
    rng = RngStream(13, "microbench/sampling")
    items = np.arange(400, dtype=np.int64)
    weights = zipf_weights(len(items), 0.9)
    print("weighted sampling: 5000 draws from a 400-page segment")
    _timed(
        "k=100 (Efraimidis-Spirakis path)",
        lambda: [
            weighted_sample_positive(rng, items, weights, 100)
            for _ in range(5000)
        ]
        and None,
    )
    _timed(
        "k=400 (whole-population short-circuit)",
        lambda: [
            weighted_sample_positive(rng, items, weights, 400)
            for _ in range(5000)
        ]
        and None,
    )


def _count_values(value) -> int:
    if isinstance(value, dict):
        return sum(_count_values(item) for item in value.values())
    if isinstance(value, list):
        return sum(_count_values(item) for item in value)
    return 1


def bench_row_encoding(dataset=None, repeats: int = 3) -> dict:
    """Encode every record of ``dataset`` (default: one small study)
    with ``asdict`` and with ``record_row``; best of ``repeats``.

    Returns ``{"records", "values", "<encoder>_values_per_second", ...}``.
    """
    if dataset is None:
        dataset = HoneypotStudy(StudyConfig.small()).run().dataset
    records = [
        *dataset.campaigns.values(), *dataset.likers.values(), *dataset.baseline
    ]
    values = sum(_count_values(record_row(record)) for record in records)
    print(f"row encoding: {len(records)} records, {values} values")
    result = {"records": len(records), "values": values}
    for label, encode in (("asdict", asdict), ("record_row", record_row)):
        def encode_all(encode=encode) -> None:
            for record in records:
                encode(record)
        seconds = min(_timed(label, encode_all) for _ in range(repeats))
        result[f"{label}_values_per_second"] = int(values / seconds)
    print(
        f"  asdict {result['asdict_values_per_second']:,} values/s, "
        f"record_row {result['record_row_values_per_second']:,} values/s"
    )
    return result


def main() -> None:
    bench_like_writes()
    bench_like_log()
    bench_friendships()
    bench_weighted_sampling()
    bench_row_encoding()


if __name__ == "__main__":
    main()
