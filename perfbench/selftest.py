"""Self-test: a corrupted iteration output is counted as failed, untimed.

Run from the root of a checkout (takes under a minute)::

    python3 perfbench/selftest.py

For each workload it runs one real iteration through the harness with its
output corrupted after the timed work and before the check, and requires
that the harness counts the iteration as failed and reports no timing for
it.  Exits 0 when every corruption is caught.
"""

from __future__ import annotations

import sys

import run


def _tear_tail(sample) -> None:
    """Cut the JSONL mid-record, as a crash during the write would."""
    path = sample.outputs["jsonl"]
    data = path.read_bytes()
    path.write_bytes(data[: len(data) - 40])


def _pad_json(sample) -> None:
    """Valid JSON, but not the bytes the program writes."""
    path = sample.outputs["jsonl"]
    path.write_bytes(path.read_bytes().replace(b'": ', b'":  ', 1))


def _flip_store_export(sample) -> None:
    path = sample.outputs["run_dir"] / "store.jsonl"
    data = bytearray(path.read_bytes())
    data[len(data) // 2] ^= 0x01
    path.write_bytes(bytes(data))


def _drop_liker(sample) -> None:
    sample.outputs["dataset"].likers.popitem()


def _drop_edge(sample) -> None:
    users, likes, edges = sample.outputs["counts"]
    sample.outputs["counts"] = (users, likes, edges - 1)


CORRUPTIONS = (
    ("paper_seeds", _tear_tail),
    ("paper_seeds", _pad_json),
    ("durable_recover", _flip_store_export),
    ("durable_recover", _drop_liker),
    ("world_10x", _drop_edge),
)


def main() -> int:
    run.import_program()
    from workloads import WORKLOADS

    caught = True
    for name, corrupt in CORRUPTIONS:
        with run.work_dir(f"selftest-{name}") as work:
            workload = WORKLOADS[name](1, work)
            workload.setup()
            workload.min_iterations = 1
            result = run.measure(workload, 0, False, corrupt)
        ok = result["attempted"] == result["failed"] == 1 and not result["plain"]
        caught = caught and ok
        print(f"{name} / {corrupt.__name__}: "
              f"attempted {result['attempted']}, failed {result['failed']}, "
              f"timed {len(result['plain'])} -> {'caught' if ok else 'MISSED'}")
    return 0 if caught else 1


if __name__ == "__main__":
    sys.exit(main())
