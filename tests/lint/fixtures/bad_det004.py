"""DET004 violation: process state managed outside repro.failpoints."""

import multiprocessing  # line 3: DET004 (process-module import)
import os

from concurrent.futures import ProcessPoolExecutor  # line 6: DET004 (from-import)


def fan_out(work):
    with multiprocessing.Pool(4) as pool:
        return pool.map(len, work)


def stamp() -> int:
    return os.getpid()  # line 15: DET004 (pid read)


def reap(pid: int) -> None:
    os.kill(pid, 9)  # line 19: DET004 (signal send)
